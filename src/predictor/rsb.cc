#include "predictor/rsb.hh"

#include "common/logging.hh"

namespace iraw {
namespace predictor {

ReturnStackBuffer::ReturnStackBuffer(uint32_t depth) : _depth(depth)
{
    fatalIf(depth == 0, "RSB: depth must be >= 1");
    _stack.assign(depth, Entry{});
}

void
ReturnStackBuffer::push(uint64_t returnAddr, uint64_t cycle)
{
    _stack[_top] = Entry{returnAddr, cycle};
    _top = (_top + 1) % _depth;
    if (_occupancy < _depth)
        ++_occupancy;
    ++_pushes;
}

ReturnStackBuffer::PopResult
ReturnStackBuffer::pop(uint64_t cycle, uint32_t stabilizationCycles)
{
    PopResult res;
    ++_pops;
    if (_occupancy == 0)
        return res;

    _top = (_top + _depth - 1) % _depth;
    --_occupancy;
    const Entry &entry = _stack[_top];
    res.valid = true;
    res.target = entry.target;
    if (stabilizationCycles > 0 &&
        cycle <= entry.pushCycle + stabilizationCycles) {
        res.inIrawWindow = true;
        ++_irawWindowPops;
    }
    return res;
}

} // namespace predictor
} // namespace iraw
