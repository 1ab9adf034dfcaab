/**
 * @file
 * Top-level single-run simulator: wires circuit model, trace source,
 * memory hierarchy and pipeline together for one (workload, Vcc,
 * mode) point and reports timing/energy-ready results.
 */

#ifndef IRAW_SIM_SIMULATION_HH
#define IRAW_SIM_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <string>

#include "adapt/vcc_controller.hh"
#include "circuit/cycle_time.hh"
#include "core/core_config.hh"
#include "core/pipeline.hh"
#include "iraw/controller.hh"
#include "memory/hierarchy.hh"
#include "trace/generator.hh"
#include "trace/trace_store.hh"

namespace iraw {

namespace variation {
class ChipSample;
}

namespace obs {
class EventTracer;
}

namespace sim {

/**
 * Wall-clock scale: nanoseconds per delay a.u. (one 12-FO4 phase at
 * 700 mV).  With 0.45 ns/a.u. the core clocks ~1.1 GHz at 700 mV,
 * Silverthorne-class.  Only relative results depend on this choice
 * through the DRAM-cycles conversion.
 */
constexpr double kNanosecondsPerAu = 0.45;

/** Everything one simulation run needs. */
struct SimConfig
{
    core::CoreConfig core;
    memory::MemoryConfig mem;

    std::string workload = "spec2006int";
    /**
     * Replay this binary trace file instead of synthesizing
     * @ref workload; empty means synthetic.
     */
    std::string tracePath;
    uint64_t seed = 1;
    uint64_t instructions = 100000;
    /**
     * Instructions executed before measurement starts (cache and
     * predictor warm-up).  The paper's 10M-instruction traces are
     * long enough that compulsory misses vanish in the noise; short
     * runs need an explicit warm window to match.
     */
    uint64_t warmupInstructions = 80000;

    circuit::MilliVolts vcc = 500.0;
    mechanism::IrawMode mode = mechanism::IrawMode::Auto;

    /**
     * Effective issue width of the run (0 = the provisioned
     * core.issueWidth).  The adapt explore policies' offline oracle
     * holds a throttled core configuration for a whole run with it;
     * the runtime policies reach the same state through
     * adapt::Decision::issueThrottle.  Values above the provisioned
     * width clamp to it.
     */
    uint32_t issueThrottle = 0;

    /**
     * Include the host perf.* group (wall seconds, Minsts/s) in this
     * run's writeStatsReport output (the scenario option profile=1).
     * Report-only: the engine never reads it, so simulated
     * aggregates are bitwise identical with it on or off.
     */
    bool profile = false;

    /**
     * Process-variation mode: run this sampled chip instance
     * instead of the nominal machine.  Whenever the operating point
     * runs IRAW, every structure takes the chip's per-line
     * stabilization maps.  Null (the default) is the nominal
     * machine; a sigma=0 chip is bitwise identical to it.  The
     * chip's geometry must match core/mem.
     */
    std::shared_ptr<const variation::ChipSample> chip;

    /**
     * Dynamic Vcc adaptation: attach an interval-driven controller
     * that re-evaluates the operating point every epoch and charges
     * a transition penalty per switch (see adapt/vcc_controller.hh).
     * @ref vcc becomes the *provisioned* (starting) voltage.  Null
     * (the default) is a fixed-Vcc run; an attached controller with
     * Policy::Static is bitwise identical to it.
     */
    std::shared_ptr<const adapt::AdaptConfig> adapt;

    /**
     * Host-side event tracing (the `chrometrace=` option): when
     * attached, the engine records adapt epoch/drain/settle windows
     * on it.  Purely observational — never fingerprinted, never
     * transported through service spools, and bitwise invisible to
     * every simulated aggregate (determinism invariant 9).
     */
    std::shared_ptr<obs::EventTracer> tracer;
};

/** Per-run variation facts (stats reporting). */
struct VariationInfo
{
    bool enabled = false; //!< a chip sample was attached
    uint32_t chipIndex = 0;
    uint64_t chipSeed = 0;
    double sigma = 0.0;
    double systematicSigma = 0.0;
    /** Worst delay multiplier on the chip at this Vcc. */
    double maxMultiplier = 1.0;
    /** Worst per-line N applied (0 when IRAW was off here). */
    uint32_t worstN = 0;
    /** The unvaried machine's uniform N at this point. */
    uint32_t nominalN = 0;
};

/** Host-side (wall-clock) measurements of one run. */
struct HostProfile
{
    /** Wall seconds spent inside Pipeline::run (always measured). */
    double wallSeconds = 0.0;
    /** Instructions actually committed inside that wall time
     *  (warmup + measured window; a trace that drains early commits
     *  fewer than the configured budget). */
    uint64_t instructions = 0;

    /** Simulation throughput in million committed instructions per
     *  wall second. */
    double
    minstsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(instructions) / 1e6 /
                         wallSeconds
                   : 0.0;
    }
};

/** Results of one run. */
struct SimResult
{
    SimConfig config;
    mechanism::IrawSettings settings;

    core::PipelineStats pipeline;
    double ipc = 0.0;
    double cycleTimeAu = 0.0;
    double execTimeAu = 0.0; //!< cycles * cycleTime
    uint64_t dramCycles = 0;

    // Memory-side IRAW stall attribution (cycles).
    uint64_t dl0GuardStalls = 0;
    uint64_t otherGuardStalls = 0; //!< IL0+UL1+TLBs+FB

    // Cache behaviour.
    double il0MissRate = 0.0;
    double dl0MissRate = 0.0;
    double ul1MissRate = 0.0;
    double bpAccuracy = 0.0;
    double bpConflictRate = 0.0; //!< potential extra mispredictions

    /** Host wall-clock cost of the run (never part of aggregates). */
    HostProfile host;

    /** Process-variation facts (enabled=false on nominal runs). */
    VariationInfo variation;

    /** Vcc-adaptation facts (enabled=false on fixed-Vcc runs). */
    adapt::AdaptInfo adapt;

    /** Instructions per a.u. of wall time (performance). */
    double
    performance() const
    {
        return execTimeAu > 0.0
                   ? static_cast<double>(pipeline.committedInsts) /
                         execTimeAu
                   : 0.0;
    }
};

/**
 * Direction-predictor accuracy over a window.  A branchless window
 * (zero predictions) is perfectly predicted — nothing was ever
 * mispredicted — not 0% accurate.
 */
double branchAccuracy(uint64_t predictions, uint64_t mispredictions);

/** Miss rate over a window; zero accesses means zero misses. */
double missRatio(uint64_t accesses, uint64_t hits);

class SimEngine;

/** Builds and runs single simulations against shared circuit models. */
class Simulator
{
  public:
    Simulator();

    /** Run one configuration to completion (see sim_engine.hh). */
    SimResult run(const SimConfig &cfg) const;

    /**
     * Share a trace store across runs: traces are materialized once
     * per (workload, seed, length) and replayed from the store
     * instead of being regenerated per run.  Null (the default)
     * builds a fresh generator per run.  Results are bitwise
     * identical either way.
     */
    void
    setTraceStore(std::shared_ptr<trace::TraceStore> store)
    {
        _traceStore = std::move(store);
    }

    const std::shared_ptr<trace::TraceStore> &
    traceStore() const
    {
        return _traceStore;
    }

    const circuit::CycleTimeModel &cycleTimeModel() const
    {
        return *_cycleTime;
    }
    const circuit::LogicDelayModel &logicModel() const
    {
        return *_logic;
    }
    const circuit::BitcellModel &bitcellModel() const
    {
        return *_bitcell;
    }
    const circuit::SramTimingModel &sramModel() const
    {
        return *_sram;
    }

    /** DRAM latency in cycles at a given cycle time. */
    static uint32_t dramCyclesAt(double cycleTimeAu,
                                 double dramLatencyNs);

    /**
     * The IRAW settings a run at (@p vcc, @p mode) would start
     * from -- exactly the engine's own computation (a fresh
     * controller reconfigured once).  The sweep runner uses this to
     * classify points by behaviour before spending simulation time:
     * two points whose (enabled, N, DRAM cycles) match execute the
     * identical tick sequence and differ only in derived scaling.
     */
    mechanism::IrawSettings
    operatingPoint(circuit::MilliVolts vcc,
                   mechanism::IrawMode mode) const
    {
        mechanism::IrawController controller(*_cycleTime, mode);
        return controller.reconfigure(vcc);
    }

  private:
    friend class SimEngine; // uses makeTraceSource()

    /** The trace source for @p cfg (store-backed, file, or live). */
    std::unique_ptr<trace::TraceSource>
    makeTraceSource(const SimConfig &cfg) const;

    std::unique_ptr<circuit::LogicDelayModel> _logic;
    std::unique_ptr<circuit::BitcellModel> _bitcell;
    std::unique_ptr<circuit::SramTimingModel> _sram;
    std::unique_ptr<circuit::CycleTimeModel> _cycleTime;
    std::shared_ptr<trace::TraceStore> _traceStore;
};

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_SIMULATION_HH
