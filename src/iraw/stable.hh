/**
 * @file
 * The Store Table (STable) — the paper's IRAW-avoidance mechanism for
 * frequently written cache-like blocks, i.e. the DL0 (Sec. 4.4,
 * Figure 10).
 *
 * Stores write DL0 data at commit; under interrupted writes the data
 * stabilizes for N cycles.  The latch-based STable keeps the address
 * and data of every store committed in the last N cycles (capacity =
 * commit-stores-per-cycle * N_max, round-robin replacement).  Loads
 * probe it in parallel with DL0:
 *
 *  - no match: nothing to do (the common case);
 *  - full address match: the STable forwards the data, then cache
 *    accesses stall while the matching stores are replayed;
 *  - set-only match: DL0 provides the data, but the read may have
 *    disturbed a stabilizing line in the same set, so the same
 *    stall + replay recovery runs.
 *
 * The table is sized for the worst-case N and the Vcc controller
 * enables only the entries the current N requires (Sec. 4.4).
 */

#ifndef IRAW_IRAW_STABLE_HH
#define IRAW_IRAW_STABLE_HH

#include <cstdint>
#include <vector>

namespace iraw {
namespace mechanism {

/** Result of a load's parallel STable probe. */
enum class StableMatch : uint8_t
{
    None = 0, //!< load proceeds normally
    Full,     //!< STable forwards the data; replay needed
    SetOnly,  //!< DL0 provides data; replay needed
};

/** Outcome details for a matching probe. */
struct StableProbeResult
{
    StableMatch match = StableMatch::None;
    /** Stores to replay (oldest matching onwards), == stall cycles. */
    uint32_t replayStores = 0;
};

/** The latch-based store table. */
class StoreTable
{
  public:
    /**
     * @param maxEntries  capacity for the largest supported N
     *                    (commitStoresPerCycle * maxN)
     * @param lineBytes   DL0 line size (set-index computation)
     * @param numSets     DL0 set count
     */
    StoreTable(uint32_t maxEntries, uint32_t lineBytes,
               uint32_t numSets);

    /**
     * Reconfigure for the current Vcc level: only
     * commitStoresPerCycle * N entries participate in matching
     * (0 disables the table entirely).
     */
    void setActiveEntries(uint32_t n);

    /**
     * Record a store committed (written into DL0) at @p cycle.
     * Replaces the round-robin-oldest entry.
     */
    void noteStore(uint64_t addr, uint8_t size, uint64_t cycle);

    /**
     * Probe for a load at @p cycle accessing @p addr.  Only entries
     * whose store data is still stabilizing (written within the last
     * @p window cycles) can match.
     */
    StableProbeResult probe(uint64_t addr, uint8_t size,
                            uint64_t cycle, uint32_t window);

    /** Drop all entries (pipeline flush). */
    void flush();

    uint64_t probes() const { return _probes; }
    uint64_t fullMatches() const { return _fullMatches; }
    uint64_t setMatches() const { return _setMatches; }
    uint64_t storesTracked() const { return _stores; }
    uint32_t capacity() const { return _capacity; }

    /** Latch bits for overhead accounting: valid + 48b address +
     *  64b data + 3b size per entry. */
    uint64_t
    latchBits() const
    {
        return static_cast<uint64_t>(_capacity) * (1 + 48 + 64 + 3);
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t addr = 0;
        uint8_t size = 0;
        uint64_t writeCycle = 0;
    };

    uint32_t setOf(uint64_t addr) const;

    uint32_t _capacity = 0;
    uint32_t _lineBytes = 0;
    uint32_t _numSets = 0;
    uint32_t _active = 0;
    uint32_t _next = 0; //!< round-robin cursor, < _active if enabled
    std::vector<Entry> _entries;

    uint64_t _probes = 0;
    uint64_t _fullMatches = 0;
    uint64_t _setMatches = 0;
    uint64_t _stores = 0;
};

} // namespace mechanism
} // namespace iraw

#endif // IRAW_IRAW_STABLE_HH
