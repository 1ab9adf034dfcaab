/**
 * @file
 * Translation lookaside buffer model (ITLB/DTLB).  Fully associative
 * with true-LRU replacement, as in small first-level TLBs.  Misses pay
 * a fixed page-walk penalty and refill the array, which under IRAW
 * operation makes the block unreadable for N cycles (handled by the
 * attached IrawPortGuard in MemoryHierarchy).
 */

#ifndef IRAW_MEMORY_TLB_HH
#define IRAW_MEMORY_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

namespace iraw {
namespace memory {

/** Static configuration of one TLB. */
struct TlbParams
{
    std::string name = "tlb";
    uint32_t entries = 16;
    uint32_t pageBytes = 4096;
    uint32_t missPenalty = 30; //!< page-walk latency in cycles

    /** Storage bits for area accounting (VPN+PPN+state per entry). */
    uint64_t totalBits() const
    {
        return static_cast<uint64_t>(entries) * (52 + 40 + 4);
    }
};

/** Fully associative TLB with LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Look up @p addr; updates LRU on hit.  Returns true on hit. */
    bool lookup(uint64_t addr);

    /**
     * Install the translation for @p addr (after a walk).  Returns
     * the slot index written — process variation keys per-entry
     * stabilization maps on it.
     */
    uint32_t fill(uint64_t addr);

    const TlbParams &params() const { return _params; }
    uint64_t accesses() const { return _accesses; }
    uint64_t misses() const { return _misses; }
    double
    missRate() const
    {
        return _accesses
                   ? static_cast<double>(_misses) / _accesses
                   : 0.0;
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t vpn = 0;
        uint64_t lru = 0;
    };

    uint64_t vpnOf(uint64_t addr) const
    {
        // Power-of-two pages (the common case) translate with one
        // shift; odd page sizes keep the division.
        return _pageShift ? addr >> _pageShift
                          : addr / _params.pageBytes;
    }

    TlbParams _params;
    uint32_t _pageShift = 0; //!< log2(pageBytes); 0 = not a pow2
    std::vector<Entry> _entries;
    /** Most-recently-hit slot, probed first: successive accesses to
     *  the same page skip the associative scan.  Purely a software
     *  fast path — hit/miss results and LRU updates are unchanged. */
    uint32_t _mru = 0;
    uint64_t _lruClock = 0;
    uint64_t _accesses = 0;
    uint64_t _misses = 0;
};

} // namespace memory
} // namespace iraw

#endif // IRAW_MEMORY_TLB_HH
