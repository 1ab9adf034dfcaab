/**
 * @file
 * The 2-wide in-order pipeline (Silverthorne class) with every IRAW
 * avoidance mechanism of the paper wired in:
 *
 *  - RF:  scoreboard ready-bit patterns delay conflicting consumers
 *         (Sec. 4.1);
 *  - IQ:  Eq. (1) occupancy gate + drain-NOP injection (Sec. 4.2);
 *  - IL0/UL1/ITLB/DTLB/FB/WCB: fill-stall port guards inside
 *         MemoryHierarchy (Sec. 4.3);
 *  - DL0: Store Table probe / forward / replay (Sec. 4.4);
 *  - BP/RSB: unprotected, with conflict tracking and optional
 *         determinism stalls or corruption injection (Sec. 4.5).
 *
 * The pipeline is trace-driven and cycle-driven: each tick runs
 * (in order) scoreboard shift, issue, fetch/allocate.  Allocation
 * runs after issue, which enforces the 1-cycle minimum between IQ
 * write and IQ read.  Register writes complete lazily: issue records
 * each destination's completion cycle, and the scoreboard and the
 * WAW check compare it with the current cycle.
 */

#ifndef IRAW_CORE_PIPELINE_HH
#define IRAW_CORE_PIPELINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/rng.hh"
#include "core/core_config.hh"
#include "core/exec_units.hh"
#include "core/instruction_queue.hh"
#include "core/scoreboard.hh"
#include "iraw/controller.hh"
#include "iraw/iq_gate.hh"
#include "iraw/stable.hh"
#include "memory/hierarchy.hh"
#include "predictor/iraw_corruption.hh"
#include "predictor/predictor_dispatch.hh"
#include "predictor/rsb.hh"
#include "trace/trace_source.hh"

namespace iraw {

namespace variation {
struct StabilizationMaps;
}

namespace core {

/** Everything the simulation measures. */
struct PipelineStats
{
    uint64_t cycles = 0;
    uint64_t committedInsts = 0;
    uint64_t drainNops = 0;

    // Issue-stall attribution (head-of-queue blocking reason/cycle).
    uint64_t rawStallCycles = 0;       //!< plain data dependence
    uint64_t rfIrawStallCycles = 0;    //!< IRAW bubble in scoreboard
    uint64_t wawStallCycles = 0;
    uint64_t structuralStallCycles = 0;
    uint64_t iqGateStallCycles = 0;    //!< Eq. (1) gate (IQ IRAW)
    uint64_t dl0ReplayStallCycles = 0; //!< STable replay recovery
    uint64_t iqEmptyCycles = 0;        //!< frontend could not supply

    /** Instructions whose issue was delayed >= 1 cycle only by the
     *  RF IRAW bubble (the paper's 13.2% statistic). */
    uint64_t rfIrawDelayedInsts = 0;

    // Frontend.
    uint64_t fetchLineAccesses = 0;
    uint64_t icacheStallCycles = 0;
    uint64_t mispredicts = 0;
    uint64_t branches = 0;
    uint64_t rsbMispredicts = 0;
    uint64_t rsbDeterminismStalls = 0;
    uint64_t bpConflictReads = 0;  //!< BP reads in an IRAW window
    uint64_t rsbConflictPops = 0;  //!< RSB pops in an IRAW window
    uint64_t injectedCorruptions = 0;

    // DL0 / STable.
    uint64_t stableFullMatches = 0;
    uint64_t stableSetMatches = 0;
    uint64_t stableReplayedStores = 0;

    // Loads/stores.
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t loadMisses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) / cycles
                      : 0.0;
    }

    /** Counter-wise difference (for warmup-window exclusion). */
    PipelineStats minus(const PipelineStats &earlier) const;

    /** All issue-stall cycles caused by IRAW mechanisms in the core
     *  (RF + IQ gate + STable replay); memory-side guard stalls are
     *  read from the hierarchy. */
    uint64_t
    coreIrawStallCycles() const
    {
        return rfIrawStallCycles + iqGateStallCycles +
               dl0ReplayStallCycles;
    }
};

/** The pipeline model. */
class Pipeline
{
  public:
    /**
     * @param cfg core configuration (validated)
     * @param hierarchy memory system (owned by the caller)
     * @param source dynamic trace (owned by the caller)
     */
    Pipeline(const CoreConfig &cfg,
             memory::MemoryHierarchy &hierarchy,
             trace::TraceSource &source);

    /**
     * Apply an operating point (Sec. 4.1.3 reconfiguration): sets N
     * on the scoreboard, IQ gate, STable, hierarchy guards and the
     * prediction-block trackers.  Requires no register write in
     * flight (a fresh, reset or drained pipeline): a long-latency
     * write's completion pattern was fixed at issue with the old N.
     */
    void applySettings(const mechanism::IrawSettings &settings);

    /**
     * Process-variation mode (call after applySettings): the
     * scoreboard takes the chip's per-register RF map, the memory
     * hierarchy its per-line block maps, and the structures without
     * per-entry maps (IQ gate, STable sizing, BP/RSB windows)
     * reconfigure to the chip's worst-case count — the hardware
     * provisions for the weakest line it must cover.  With an
     * all-nominal map (sigma = 0) results are bitwise identical to
     * the unvaried machine.  Like applySettings(), requires no
     * register write in flight.
     */
    void applyStabilizationMaps(
        std::shared_ptr<const variation::StabilizationMaps> maps);

    /** Run until @p maxInsts commit (or the trace ends). */
    const PipelineStats &run(uint64_t maxInsts);

    /**
     * Run until @p maxInsts commit, the trace ends, or the cycle
     * counter reaches @p stopCycle — the epoch-chunked entry point
     * of the dynamic Vcc controller.  Chunked calls execute exactly
     * the tick sequence one run() call would, so results are
     * bitwise identical for any chunking.
     */
    const PipelineStats &runUntil(uint64_t maxInsts,
                                  memory::Cycle stopCycle);

    /**
     * Drain for a voltage switch: stop supplying new trace
     * micro-ops (injecting Eq. (1) drain NOOPs as needed) and tick
     * until every real instruction has issued and every in-flight
     * write completed, then discard the leftover filler entries.
     * Returns the cycles ticked.  @p maxInsts is the run's full
     * instruction budget: if the budget fills mid-drain the drain
     * stops early (the run is over; no switch will follow).
     */
    uint64_t drainQuiesce(uint64_t maxInsts);

    /**
     * Transition-model settle window: advance the cycle counter by
     * @p cycles without ticking (the core is idle while Vcc ramps).
     * Requires a quiesced pipeline (after drainQuiesce); every
     * stabilization window and busy-until marker expires across the
     * jump, and the scoreboard returns to all-ready — the physical
     * state after the settle time.
     */
    void advanceIdleCycles(uint64_t cycles);

    /** True iff no real work is in flight (post-drain state). */
    bool quiescedForSwitch() const;

    memory::Cycle currentCycle() const { return _cycle; }

    const PipelineStats &stats() const { return _stats; }
    const Scoreboard &scoreboard() const { return _scoreboard; }
    const mechanism::StoreTable &storeTable() const { return _stable; }
    const mechanism::IqOccupancyGate &iqGate() const { return _gate; }
    const predictor::InlinePredictor &branchPredictor() const
    {
        return _bp;
    }
    const predictor::ReturnStackBuffer &rsb() const { return _rsb; }
    const predictor::CorruptionTracker &bpCorruption() const
    {
        return _bpCorruption;
    }
    uint32_t stabilizationCycles() const { return _n; }
    bool irawActive() const { return _n > 0; }

    /**
     * Runtime issue-width throttle (the adapt explore policies'
     * core-config axis): issue at most @p width micro-ops per
     * cycle; 0 restores the provisioned width.  Only the slot loop
     * narrows — the IQ occupancy gate and every provisioned
     * structure keep their configured widths, so a throttled
     * machine is strictly more conservative than the full one.
     * Like applySettings(), call it only between cycles (the engine
     * applies it through the drain + settle switch path).
     */
    void setIssueThrottle(uint32_t width);
    uint32_t issueThrottle() const { return _issueThrottle; }

    /** Reset all machine state (keeps configuration). */
    void reset();

  private:
    /** Reason the head of the IQ could not issue this cycle. */
    enum class BlockReason
    {
        None,
        Raw,
        RfIraw,
        Waw,
        Structural,
        Dl0Replay,
    };

    /** Cycles between a branch's prediction read and the array write
     *  of its update (frontend-to-execute distance). */
    static constexpr memory::Cycle kBpUpdateDelay = 6;

    void tick();
    void issueStage();
    void fetchStage();
    BlockReason tryIssue(IqEntry &entry, bool &issued);
    void executeControlOp(const IqEntry &entry);
    void issueMemOp(IqEntry &entry);
    void setDestination(isa::RegId dst, uint32_t latency);
    bool sourcesReady(const isa::MicroOp &op,
                      BlockReason &reason) const;

    /** Has some issued register write not completed yet? */
    bool writesInFlight() const { return _lastWriteDone > _cycle; }

    /** Is a trace micro-op buffered ahead of the IQ? */
    bool
    fetchPending() const
    {
        return _replay ? _peek != nullptr : _nextOp.has_value();
    }

    CoreConfig _cfg;
    memory::MemoryHierarchy &_mem;
    trace::TraceSource &_trace;
    /** Non-null iff _trace is a store-backed replay cursor; enables
     *  the zero-copy fetch path (no virtual call, no unpack). */
    trace::ReplayTraceSource *_replay = nullptr;

    Scoreboard _scoreboard;
    InstructionQueue _iq;
    ExecUnits _units;
    mechanism::IqOccupancyGate _gate;
    mechanism::StoreTable _stable;
    predictor::InlinePredictor _bp;
    predictor::ReturnStackBuffer _rsb;
    predictor::CorruptionTracker _bpCorruption;
    Pcg32 _rng;

    PipelineStats _stats;

    memory::Cycle _cycle = 0;
    uint32_t _n = 0; //!< active stabilization cycles
    uint32_t _issueThrottle = 0; //!< effective issue width
    uint64_t _instBudget = 0; //!< run() stops exactly at this count

    // Write completion: the cycle each register's last issued write
    // completes (the WAW check allows one in flight per register),
    // and the latest of them all (the drain's quiescence test).
    std::array<memory::Cycle, isa::kNumLogicalRegs> _writeDoneAt{};
    memory::Cycle _lastWriteDone = 0;

    // Frontend state.  _nextOp buffers the prefetched micro-op for
    // streaming sources; _peek is its zero-copy counterpart for
    // replay sources (a pointer into the shared decoded buffer).
    // Exactly one of the two is in use per pipeline.
    std::optional<isa::MicroOp> _nextOp;
    const isa::MicroOp *_peek = nullptr;
    bool _traceDone = false;
    bool _fetchFrozen = false; //!< drainQuiesce: no new trace ops
    bool _fetchHalted = false; //!< mispredicted branch in flight
    memory::Cycle _fetchBlockedUntil = 0;
    uint64_t _currentFetchLine = ~0ULL;
    /** log2 of the IL0 line size (cached off the hierarchy config:
     *  the fetch loop derives one line index per micro-op). */
    unsigned _il0LineShift = 0;
    uint64_t _nopsInjected = 0;
    uint64_t _nopSeq = 0;

    // DL0 STable replay window.
    memory::Cycle _dl0ReplayBlockedUntil = 0;
};

} // namespace core
} // namespace iraw

#endif // IRAW_CORE_PIPELINE_HH
