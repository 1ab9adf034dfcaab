#include "core/instruction_queue.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace core {

InstructionQueue::InstructionQueue(uint32_t size) : _size(size)
{
    fatalIf(!isPowerOf2(size),
            "InstructionQueue: size must be a power of two");
    _entries.assign(size, IqEntry{});
}

void
InstructionQueue::popFront()
{
    panicIf(empty(), "InstructionQueue: popFront() on empty queue");
    if (isReal(_entries[_head & (_size - 1)]))
        --_realCount;
    _head = (_head + 1) & (2 * _size - 1);
}

void
InstructionQueue::popBack()
{
    panicIf(empty(), "InstructionQueue: popBack() on empty queue");
    _tail = (_tail + 2 * _size - 1) & (2 * _size - 1);
    if (isReal(_entries[_tail & (_size - 1)]))
        --_realCount;
}

void
InstructionQueue::clear()
{
    _head = 0;
    _tail = 0;
    _realCount = 0;
}

} // namespace core
} // namespace iraw
