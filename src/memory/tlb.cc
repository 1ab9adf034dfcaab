#include "memory/tlb.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace memory {

Tlb::Tlb(const TlbParams &params) : _params(params)
{
    fatalIf(_params.entries == 0, "tlb %s: needs >= 1 entry",
            _params.name.c_str());
    fatalIf(_params.pageBytes == 0,
            "tlb %s: pageBytes must be positive",
            _params.name.c_str());
    if (isPowerOf2(_params.pageBytes))
        _pageShift = floorLog2(_params.pageBytes);
    _entries.assign(_params.entries, Entry{});
}

bool
Tlb::lookup(uint64_t addr)
{
    ++_accesses;
    uint64_t vpn = vpnOf(addr);
    // Fast path: repeated accesses to the last page that hit.
    Entry &mru = _entries[_mru];
    if (mru.valid && mru.vpn == vpn) {
        mru.lru = ++_lruClock;
        return true;
    }
    for (size_t i = 0; i < _entries.size(); ++i) {
        Entry &entry = _entries[i];
        if (entry.valid && entry.vpn == vpn) {
            entry.lru = ++_lruClock;
            _mru = static_cast<uint32_t>(i);
            return true;
        }
    }
    ++_misses;
    return false;
}

uint32_t
Tlb::fill(uint64_t addr)
{
    uint64_t vpn = vpnOf(addr);
    Entry *victim = nullptr;
    for (auto &entry : _entries) {
        if (entry.valid && entry.vpn == vpn) {
            entry.lru = ++_lruClock;
            // Already present (racing refill).
            return static_cast<uint32_t>(&entry - _entries.data());
        }
        if (!entry.valid) {
            if (!victim || victim->valid)
                victim = &entry;
        } else if (!victim ||
                   (victim->valid && entry.lru < victim->lru)) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lru = ++_lruClock;
    return static_cast<uint32_t>(victim - _entries.data());
}

} // namespace memory
} // namespace iraw
