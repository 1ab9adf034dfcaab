#include "iraw/stable.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace mechanism {

StoreTable::StoreTable(uint32_t maxEntries, uint32_t lineBytes,
                       uint32_t numSets)
    : _capacity(maxEntries), _lineBytes(lineBytes), _numSets(numSets)
{
    fatalIf(maxEntries == 0, "StoreTable: needs >= 1 entry");
    fatalIf(!isPowerOf2(lineBytes),
            "StoreTable: lineBytes must be a power of two");
    fatalIf(!isPowerOf2(numSets),
            "StoreTable: numSets must be a power of two");
    _entries.assign(maxEntries, Entry{});
}

void
StoreTable::setActiveEntries(uint32_t n)
{
    fatalIf(n > _capacity,
            "StoreTable: %u active entries exceed capacity %u", n,
            _capacity);
    _active = n;
    // Disabled entries are invalidated so a later reconfiguration
    // cannot resurrect stale matches.  A shrink wraps the round-robin
    // cursor into the active range: a store written at a slot past
    // it would never be probed.
    if (_active == 0)
        flush();
    else
        _next %= _active;
}

void
StoreTable::noteStore(uint64_t addr, uint8_t size, uint64_t cycle)
{
    if (_active == 0)
        return;
    ++_stores;
    Entry &slot = _entries[_next];
    slot.valid = true;
    slot.addr = addr;
    slot.size = size;
    slot.writeCycle = cycle;
    _next = (_next + 1) % _active;
}

uint32_t
StoreTable::setOf(uint64_t addr) const
{
    return static_cast<uint32_t>((addr / _lineBytes) &
                                 (_numSets - 1));
}

StableProbeResult
StoreTable::probe(uint64_t addr, uint8_t size, uint64_t cycle,
                  uint32_t window)
{
    StableProbeResult res;
    if (_active == 0 || window == 0)
        return res;
    ++_probes;

    uint32_t loadSet = setOf(addr);
    uint64_t loadLo = addr;
    uint64_t loadHi = addr + size;

    // Scan from the round-robin-oldest entry onwards so replayStores
    // counts "from the oldest matching entry onwards" (Sec. 4.4).
    int32_t firstMatch = -1;
    bool sawFull = false;
    for (uint32_t i = 0; i < _active; ++i) {
        uint32_t idx = (_next + i) % _active; // oldest first
        const Entry &entry = _entries[idx];
        if (!entry.valid)
            continue;
        // Only stores still inside the stabilization window conflict.
        if (cycle > entry.writeCycle + window ||
            cycle <= entry.writeCycle)
            continue;

        bool overlap = loadLo < entry.addr + entry.size &&
                       entry.addr < loadHi;
        bool sameSet = setOf(entry.addr) == loadSet;
        if (overlap || sameSet) {
            if (firstMatch < 0)
                firstMatch = static_cast<int32_t>(i);
            if (overlap)
                sawFull = true;
        }
    }

    if (firstMatch < 0)
        return res;

    res.match = sawFull ? StableMatch::Full : StableMatch::SetOnly;
    res.replayStores = _active - static_cast<uint32_t>(firstMatch);
    if (sawFull)
        ++_fullMatches;
    else
        ++_setMatches;
    return res;
}

void
StoreTable::flush()
{
    for (auto &entry : _entries)
        entry.valid = false;
    _next = 0;
}

} // namespace mechanism
} // namespace iraw
