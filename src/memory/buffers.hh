/**
 * @file
 * Miss-handling buffers between the L0 caches and UL1:
 *  - FillBuffer (FB): tracks outstanding line fills, merges requests
 *    to the same line, and delivers the fill at its ready cycle;
 *  - WriteCombiningEvictionBuffer (WCB/EB): holds dirty victims and
 *    drains them to UL1 in the background.
 *
 * Both are small SRAM blocks in the real core, so both carry an
 * IRAW port guard in the hierarchy (paper Sec. 4.3 applies the
 * fill-stall policy to the FB and WCB/EB too).
 */

#ifndef IRAW_MEMORY_BUFFERS_HH
#define IRAW_MEMORY_BUFFERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "memory/iraw_guard.hh"

namespace iraw {
namespace memory {

/** Outstanding-fill tracker. */
class FillBuffer
{
  public:
    FillBuffer(std::string name, uint32_t entries);

    /** True iff a fill for @p lineAddr is in flight. */
    bool contains(uint64_t lineAddr) const;

    /** Ready cycle of the in-flight fill for @p lineAddr. */
    Cycle readyCycle(uint64_t lineAddr) const;

    /** True iff no entry is free at @p cycle (after retirement). */
    bool full(Cycle cycle);

    /**
     * Allocate an entry at @p cycle for @p lineAddr completing at
     * @p ready.  Takes a clear entry first, otherwise reuses the
     * earliest entry whose fill completed by @p cycle -- exactly the
     * entries full() counts as free.  Caller must ensure
     * !full(@p cycle) and !contains().
     */
    void allocate(uint64_t lineAddr, Cycle cycle, Cycle ready);

    /** Earliest completion among in-flight fills (stall target). */
    Cycle earliestReady() const;

    /**
     * Release entries whose fills completed at or before @p cycle and
     * return their line addresses (the hierarchy installs them into
     * the cache and arms the IRAW guard at the fill cycle).
     */
    std::vector<std::pair<uint64_t, Cycle>> retire(Cycle cycle);

    uint32_t occupancy() const;
    uint32_t entries() const { return _capacity; }
    uint64_t allocations() const { return _allocations; }
    uint64_t mergedRequests() const { return _merged; }
    void noteMerge() { ++_merged; }
    const std::string &name() const { return _name; }
    void reset();

    /** Storage bits for area accounting. */
    uint64_t
    totalBits() const
    {
        // Address + 64B line data + state per entry.
        return static_cast<uint64_t>(_capacity) * (64 + 512 + 8);
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t lineAddr = 0;
        Cycle ready = 0;
    };

    std::string _name;
    uint32_t _capacity = 0;
    std::vector<Entry> _slots;
    uint64_t _allocations = 0;
    uint64_t _merged = 0;
};

/** Dirty-victim buffer draining to the next level. */
class WriteCombiningBuffer
{
  public:
    WriteCombiningBuffer(std::string name, uint32_t entries,
                         uint32_t drainLatency);

    /**
     * Accept a dirty victim line at @p cycle.  If the buffer is full,
     * the caller must first wait until earliestDrain(); push() then
     * succeeds.  Returns the cycle the push actually happened (==
     * @p cycle unless the buffer was full).
     */
    Cycle push(uint64_t lineAddr, Cycle cycle);

    /** True iff all entries are still draining at @p cycle. */
    bool full(Cycle cycle);

    /** Earliest cycle at which an entry frees up. */
    Cycle earliestDrain() const;

    /** Write-combining hit: victim line already buffered? */
    bool contains(uint64_t lineAddr) const;

    uint32_t occupancy() const;
    uint64_t pushes() const { return _pushes; }
    uint64_t fullStalls() const { return _fullStalls; }
    const std::string &name() const { return _name; }
    void reset();

    uint64_t
    totalBits() const
    {
        return static_cast<uint64_t>(_capacity) * (64 + 512 + 8);
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t lineAddr = 0;
        Cycle drainsAt = 0;
    };

    void release(Cycle cycle);

    std::string _name;
    uint32_t _capacity = 0;
    uint32_t _drainLatency = 0;
    std::vector<Entry> _slots;
    uint64_t _pushes = 0;
    uint64_t _fullStalls = 0;
};

} // namespace memory
} // namespace iraw

#endif // IRAW_MEMORY_BUFFERS_HH
