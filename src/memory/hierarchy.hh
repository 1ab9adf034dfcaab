/**
 * @file
 * The Silverthorne-style memory hierarchy: IL0 + DL0 backed by a
 * unified UL1, ITLB/DTLB, a shared fill buffer (FB) and a write-
 * combining/eviction buffer (WCB/EB) draining dirty victims, plus a
 * fixed-latency DRAM behind UL1.
 *
 * Every SRAM block carries an IrawPortGuard.  When the IRAW mechanism
 * is active (N > 0), a fill into a block stalls *all* subsequent
 * accesses to that block for N cycles (paper Sec. 4.3) — this file is
 * where those stalls are imposed and attributed.
 *
 * DRAM latency is configured in cycles by the simulator at each
 * operating point: the paper keeps off-chip latency constant in
 * nanoseconds, so a faster (IRAW) clock pays *more cycles* per miss —
 * one of the two reasons performance gain trails frequency gain
 * (Sec. 5.2).
 */

#ifndef IRAW_MEMORY_HIERARCHY_HH
#define IRAW_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "memory/buffers.hh"
#include "memory/cache.hh"
#include "memory/iraw_guard.hh"
#include "memory/tlb.hh"

namespace iraw {

namespace variation {
struct StabilizationMaps;
enum class StructureId : uint32_t;
}

namespace memory {

/** Full hierarchy configuration (Silverthorne-class defaults). */
struct MemoryConfig
{
    CacheParams il0{"il0", 32 * 1024, 8, 64};
    CacheParams dl0{"dl0", 24 * 1024, 6, 64};
    CacheParams ul1{"ul1", 512 * 1024, 8, 64};
    TlbParams itlb{"itlb", 32, 4096, 20};
    TlbParams dtlb{"dtlb", 32, 4096, 20};

    uint32_t ul1HitLatency = 12; //!< cycles from L0 miss to L0 fill
    uint32_t fbEntries = 8;
    uint32_t wcbEntries = 8;
    uint32_t wcbDrainLatency = 12;
    uint32_t wcbForwardLatency = 2; //!< load hit in WCB

    double dramLatencyNs = 80.0; //!< constant in wall-clock time
};

/** Timing outcome of one hierarchy access. */
struct MemAccessResult
{
    Cycle readyCycle = 0;      //!< when the data/instruction is usable
    bool l0Hit = false;        //!< hit in IL0/DL0
    bool ul1Hit = false;       //!< (on L0 miss) hit in UL1
    bool tlbMiss = false;
    bool wcbForward = false;   //!< serviced from the WCB/EB
    bool fbMerge = false;      //!< merged into an in-flight fill
    Cycle irawStallCycles = 0; //!< stall imposed by IRAW port guards
};

/** The composed hierarchy. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &cfg);

    /**
     * Set the per-Vcc stabilization cycle count on every block guard
     * (0 turns the IRAW fill-stall mechanism off).  Clears any
     * per-line stabilization maps.
     */
    void setStabilizationCycles(uint32_t n);

    /**
     * Process-variation mode: fills consult the chip's per-line
     * stabilization maps, so a write into a weak frame blocks the
     * block's ports longer than one into a strong frame.  The FB
     * (tiny, fully-busy) uses its structure's worst-case count.
     * The WCB arms no write guard here — exactly as in nominal
     * operation, where drains are background traffic and forwards
     * resolve against the shared FB guard — so its sampled map
     * only contributes to chip operability.  Null returns to
     * uniform operation.
     */
    void setStabilizationMaps(
        std::shared_ptr<const variation::StabilizationMaps> maps);

    /** Set the DRAM latency in core cycles for this operating point. */
    void setDramLatencyCycles(uint32_t cycles);

    /** Instruction fetch of the line containing @p pc. */
    MemAccessResult instFetch(uint64_t pc, Cycle cycle);

    /** Data load at @p addr. */
    MemAccessResult dataLoad(uint64_t addr, Cycle cycle);

    /** Committed store at @p addr (write-allocate, write-back). */
    MemAccessResult dataStore(uint64_t addr, Cycle cycle);

    // Component access for stats/tests.
    const Cache &il0() const { return _il0; }
    const Cache &dl0() const { return _dl0; }
    const Cache &ul1() const { return _ul1; }
    const Tlb &itlb() const { return _itlb; }
    const Tlb &dtlb() const { return _dtlb; }
    const WriteCombiningBuffer &wcb() const { return _wcb; }
    const IrawPortGuard &il0Guard() const { return _il0Guard; }
    const IrawPortGuard &dl0Guard() const { return _dl0Guard; }
    const IrawPortGuard &ul1Guard() const { return _ul1Guard; }
    const IrawPortGuard &itlbGuard() const { return _itlbGuard; }
    const IrawPortGuard &dtlbGuard() const { return _dtlbGuard; }
    const IrawPortGuard &fbGuard() const { return _fbGuard; }

    /** Sum of stall cycles imposed by all guards so far. */
    uint64_t totalIrawStallCycles() const;

    /** Total SRAM bits across all blocks (for overhead accounting). */
    uint64_t totalSramBits() const;

    const MemoryConfig &config() const { return _cfg; }

  private:
    /**
     * Service an L0 miss for @p lineAddr through FB -> UL1 -> DRAM.
     * Returns the cycle the fill data arrives at the L0.
     */
    Cycle serviceMiss(Cache &l0, uint64_t lineAddr, Cycle cycle,
                      bool dirtyFill, MemAccessResult &res);

    /**
     * Translate @p addr in @p tlb (block @p s) for an access at
     * @p cycle: wait out @p guard, and on a miss pay the penalty,
     * refill and arm the guard.  Returns the cycle the translation
     * is ready.
     */
    Cycle translate(Tlb &tlb, IrawPortGuard &guard,
                    variation::StructureId s, uint64_t addr,
                    Cycle cycle, MemAccessResult &res);

    /** Install fills whose data has arrived by @p cycle. */
    void retireFills(Cycle cycle);

    MemoryConfig _cfg;
    Cache _il0;
    Cache _dl0;
    Cache _ul1;
    Tlb _itlb;
    Tlb _dtlb;
    FillBuffer _fb;
    WriteCombiningBuffer _wcb;

    IrawPortGuard _il0Guard{"il0"};
    IrawPortGuard _dl0Guard{"dl0"};
    IrawPortGuard _ul1Guard{"ul1"};
    IrawPortGuard _itlbGuard{"itlb"};
    IrawPortGuard _dtlbGuard{"dtlb"};
    IrawPortGuard _fbGuard{"fb"};

    /**
     * Stabilization count for a write into @p frame of block @p s,
     * guarded by @p guard: the map's entry (its worst entry for the
     * FB) in variation mode, else the guard's uniform N.
     */
    uint32_t writeN(const IrawPortGuard &guard, variation::StructureId s,
                    uint32_t frame) const;

    uint32_t _dramCycles = 160;

    /** Per-line stabilization maps (null = uniform operation). */
    std::shared_ptr<const variation::StabilizationMaps> _maps;

    /** Pending L0 installs: (lineAddr, fillCycle, icache?, dirty). */
    struct PendingFill
    {
        uint64_t lineAddr = 0;
        Cycle fillCycle = 0;
        bool toIl0 = false;
        bool dirty = false;
    };
    std::vector<PendingFill> _pending;
};

} // namespace memory
} // namespace iraw

#endif // IRAW_MEMORY_HIERARCHY_HH
