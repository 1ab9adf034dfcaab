/**
 * @file
 * Set-associative cache tag/state model with true-LRU replacement.
 *
 * This models hit/miss/eviction behaviour; access *timing* is composed
 * by MemoryHierarchy.  Data values are not modelled (trace-driven
 * simulation does not need them), but dirty state and victim identity
 * are, since they drive the WCB/EB and UL1 traffic the IRAW fill
 * stalls act on.
 */

#ifndef IRAW_MEMORY_CACHE_HH
#define IRAW_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "memory/iraw_guard.hh"

namespace iraw {
namespace memory {

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;

    uint32_t numSets() const
    {
        return static_cast<uint32_t>(sizeBytes / lineBytes / assoc);
    }
    /** Storage bits incl. tag/state overhead (for area accounting). */
    uint64_t totalBits() const;
};

/** Result of inserting a line: the evicted victim, if any. */
struct Victim
{
    bool valid = false;
    bool dirty = false;
    uint64_t lineAddr = 0;
    /**
     * Physical frame the fill landed in (set * assoc + way) —
     * process variation keys per-line stabilization maps on it.
     */
    uint32_t frame = 0;
};

/** Tag-array model of a set-associative, write-back cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** True iff @p addr currently hits (no state change). */
    bool probe(uint64_t addr) const;

    /**
     * Perform a demand access: on a hit, updates LRU (and the dirty
     * bit when @p isWrite).  Returns true on hit.  Misses change no
     * state; callers fill() after the miss is serviced.
     */
    bool access(uint64_t addr, bool isWrite);

    /**
     * Install the line containing @p addr, evicting the set's LRU
     * line if the set is full.
     */
    Victim fill(uint64_t addr, bool dirty = false);

    uint64_t lineAddr(uint64_t addr) const
    {
        return addr & ~static_cast<uint64_t>(_params.lineBytes - 1);
    }

    /** Set index of @p addr (shift/mask; hot path). */
    uint32_t
    setIndex(uint64_t addr) const
    {
        return static_cast<uint32_t>((addr >> _lineShift) &
                                     _setMask);
    }

    /** Tag of @p addr (single shift; hot path). */
    uint64_t tagOf(uint64_t addr) const { return addr >> _tagShift; }

    const CacheParams &params() const { return _params; }

    uint64_t accesses() const { return _accesses; }
    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _accesses - _hits; }
    uint64_t fills() const { return _fills; }
    uint64_t dirtyEvictions() const { return _dirtyEvictions; }
    double
    missRate() const
    {
        return _accesses
                   ? static_cast<double>(misses()) / _accesses
                   : 0.0;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lru = 0; //!< higher == more recently used
    };

    Line *findLine(uint64_t addr);
    const Line *findLine(uint64_t addr) const;

    CacheParams _params;
    // Shift/mask values precomputed from the power-of-two geometry
    // so set/tag extraction costs shifts, not integer divisions.
    uint32_t _lineShift = 0; //!< log2(lineBytes)
    uint32_t _setShift = 0;  //!< log2(numSets)
    uint32_t _tagShift = 0;  //!< _lineShift + _setShift
    uint64_t _setMask = 0;   //!< numSets - 1
    std::vector<Line> _lines; //!< numSets x assoc, row-major
    uint64_t _lruClock = 0;

    uint64_t _accesses = 0;
    uint64_t _hits = 0;
    uint64_t _fills = 0;
    uint64_t _dirtyEvictions = 0;
};

} // namespace memory
} // namespace iraw

#endif // IRAW_MEMORY_CACHE_HH
