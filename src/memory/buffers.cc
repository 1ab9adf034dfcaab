#include "memory/buffers.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace iraw {
namespace memory {

FillBuffer::FillBuffer(std::string name, uint32_t entries)
    : _name(std::move(name)), _capacity(entries)
{
    fatalIf(entries == 0, "fill buffer %s: needs >= 1 entry",
            _name.c_str());
    _slots.assign(entries, Entry{});
}

bool
FillBuffer::contains(uint64_t lineAddr) const
{
    for (const auto &slot : _slots)
        if (slot.valid && slot.lineAddr == lineAddr)
            return true;
    return false;
}

Cycle
FillBuffer::readyCycle(uint64_t lineAddr) const
{
    for (const auto &slot : _slots)
        if (slot.valid && slot.lineAddr == lineAddr)
            return slot.ready;
    panic("fill buffer %s: readyCycle() for absent line 0x%llx",
          _name.c_str(), static_cast<unsigned long long>(lineAddr));
}

bool
FillBuffer::full(Cycle cycle)
{
    // Retirement is lazy: an entry whose fill completed by @p cycle
    // is free even before retire() clears it.
    for (const auto &slot : _slots)
        if (!slot.valid || slot.ready <= cycle)
            return false;
    return true;
}

void
FillBuffer::allocate(uint64_t lineAddr, Cycle cycle, Cycle ready)
{
    panicIf(contains(lineAddr),
            "fill buffer %s: duplicate allocation for line 0x%llx",
            _name.c_str(),
            static_cast<unsigned long long>(lineAddr));
    // Retirement is lazy (see full()), so a fill that completed by
    // @p cycle may still hold its entry; it is as free as a clear one.
    Entry *pick = nullptr;
    for (auto &slot : _slots) {
        if (!slot.valid) {
            pick = &slot;
            break;
        }
        if (slot.ready <= cycle && (!pick || slot.ready < pick->ready))
            pick = &slot;
    }
    panicIf(pick == nullptr,
            "fill buffer %s: allocate() with no free entry",
            _name.c_str());
    pick->valid = true;
    pick->lineAddr = lineAddr;
    pick->ready = ready;
    ++_allocations;
}

Cycle
FillBuffer::earliestReady() const
{
    Cycle earliest = std::numeric_limits<Cycle>::max();
    for (const auto &slot : _slots)
        if (slot.valid)
            earliest = std::min(earliest, slot.ready);
    panicIf(earliest == std::numeric_limits<Cycle>::max(),
            "fill buffer %s: earliestReady() on empty buffer",
            _name.c_str());
    return earliest;
}

void
FillBuffer::retire(Cycle cycle)
{
    for (auto &slot : _slots)
        if (slot.valid && slot.ready <= cycle)
            slot.valid = false;
}

uint32_t
FillBuffer::occupancy() const
{
    uint32_t n = 0;
    for (const auto &slot : _slots)
        if (slot.valid)
            ++n;
    return n;
}

WriteCombiningBuffer::WriteCombiningBuffer(std::string name,
                                           uint32_t entries,
                                           uint32_t drainLatency)
    : _name(std::move(name)), _capacity(entries),
      _drainLatency(drainLatency)
{
    fatalIf(entries == 0, "WCB %s: needs >= 1 entry", _name.c_str());
    fatalIf(drainLatency == 0, "WCB %s: drain latency must be >= 1",
            _name.c_str());
    _slots.assign(entries, Entry{});
}

void
WriteCombiningBuffer::release(Cycle cycle)
{
    for (auto &slot : _slots)
        if (slot.valid && slot.drainsAt <= cycle)
            slot.valid = false;
}

bool
WriteCombiningBuffer::contains(uint64_t lineAddr) const
{
    for (const auto &slot : _slots)
        if (slot.valid && slot.lineAddr == lineAddr)
            return true;
    return false;
}

bool
WriteCombiningBuffer::full(Cycle cycle)
{
    release(cycle);
    for (const auto &slot : _slots)
        if (!slot.valid)
            return false;
    return true;
}

Cycle
WriteCombiningBuffer::earliestDrain() const
{
    Cycle earliest = std::numeric_limits<Cycle>::max();
    for (const auto &slot : _slots)
        if (slot.valid)
            earliest = std::min(earliest, slot.drainsAt);
    panicIf(earliest == std::numeric_limits<Cycle>::max(),
            "WCB %s: earliestDrain() on empty buffer", _name.c_str());
    return earliest;
}

Cycle
WriteCombiningBuffer::push(uint64_t lineAddr, Cycle cycle)
{
    release(cycle);

    // Write-combining: a victim already in flight merges for free.
    for (auto &slot : _slots) {
        if (slot.valid && slot.lineAddr == lineAddr) {
            ++_pushes;
            return cycle;
        }
    }

    Cycle when = cycle;
    if (full(cycle)) {
        when = earliestDrain();
        _fullStalls += when - cycle;
        release(when);
    }
    for (auto &slot : _slots) {
        if (!slot.valid) {
            slot.valid = true;
            slot.lineAddr = lineAddr;
            slot.drainsAt = when + _drainLatency;
            ++_pushes;
            return when;
        }
    }
    panic("WCB %s: no free entry after release", _name.c_str());
}

uint32_t
WriteCombiningBuffer::occupancy() const
{
    uint32_t n = 0;
    for (const auto &slot : _slots)
        if (slot.valid)
            ++n;
    return n;
}

} // namespace memory
} // namespace iraw
