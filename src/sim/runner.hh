/**
 * @file
 * Parallel experiment runner: decomposes a Vcc sweep into independent
 * (Vcc, trace, machine-config) simulations, schedules them over a
 * worker pool in trace-grouped chunks, and merges the per-trace
 * results with a deterministic, fixed-order reduction.
 *
 * Scheduling layers, from the outside in:
 *
 *  1. Behaviour-class dedup (runMachines): the pipeline's tick
 *     sequence at an operating point depends on the point only
 *     through (IRAW enabled, stabilization cycles N, DRAM latency in
 *     cycles).  Points in the same class share one set of
 *     simulations; the others are *aliases* whose derived scaling
 *     (settings, cycle time, exec time) is recomputed with the exact
 *     expressions a full run evaluates, so aliased rows are bitwise
 *     identical to simulated ones.  Only plain fixed-Vcc runs are
 *     produced here (no chip sample, no adaptive controller), which
 *     is what makes the classification sound.
 *
 *  2. Trace-grouped chunking (runConfigs): simulations are grouped by
 *     trace identity (workload, trace path, seed, budget) and each
 *     group is cut into chunks of RunnerConfig::chunkSize configs.
 *     One chunk is one work item for the thread pool; it runs its
 *     configs in order, each through Simulator::run, replaying the
 *     trace store's one decoded buffer.
 *
 * Determinism: every simulation is an independent Simulator::run,
 * results are written back by input index and the reduction always
 * folds partials in suite order, so aggregates are bitwise identical
 * for any thread count and any chunk size.
 */

#ifndef IRAW_SIM_RUNNER_HH
#define IRAW_SIM_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace iraw {

namespace obs {
class TelemetrySession;
}

namespace service {
class ServiceSession;
}

namespace sim {

/** Execution settings of the parallel runner. */
struct RunnerConfig
{
    RunnerConfig() = default;
    RunnerConfig(unsigned threadCount, unsigned chunkConfigs = 8,
                 std::shared_ptr<service::ServiceSession> session =
                     nullptr)
        : threads(threadCount), chunkSize(chunkConfigs),
          service(std::move(session))
    {}

    /** Worker threads; 0 means "one per hardware thread". */
    unsigned threads = 1;

    /**
     * Configs per work item: the most simulations of one trace a
     * thread-pool task (or a service shard) runs back to back.
     * Results are bitwise identical at every setting.
     */
    unsigned chunkSize = 8;

    /**
     * Sharded service mode (scenario option workers=): when set,
     * runConfigs delegates execution to the fault-tolerant
     * multi-process supervisor (src/service/) instead of the
     * in-process thread pool.  Simulated results are bitwise
     * identical either way (determinism invariant 8).
     */
    std::shared_ptr<service::ServiceSession> service;

    /**
     * Telemetry session (scenario options telemetry= / chrometrace=
     * / progress=): the runner records sweep chunk spans on its
     * tracer, reports work-item completion on its progress meter and
     * folds runner.*, perf.* and adapt.* counters into its metrics
     * registry.  Null = telemetry off; simulated results are bitwise
     * identical either way (determinism invariant 9).
     */
    std::shared_ptr<obs::TelemetrySession> telemetry;
};

/**
 * Trace identity: configs with equal keys replay the same dynamic
 * instruction stream, so they share one decoded buffer.  Shared with
 * the service shard manifest, which must decompose work exactly like
 * the in-process runner.
 */
std::string traceGroupKey(const SimConfig &cfg);

/**
 * Group config indices by trace identity (first-appearance order),
 * then cut each group into chunks of at most @p chunkSize configs.
 * This is both runConfigs's work decomposition and the service
 * layer's shard decomposition.
 */
std::vector<std::vector<size_t>>
traceGroupedChunks(const std::vector<SimConfig> &configs,
                   size_t chunkSize);

/** One (voltage, machine) aggregation request. */
struct MachinePoint
{
    circuit::MilliVolts vcc = 0.0;
    mechanism::IrawMode mode = mechanism::IrawMode::Auto;
};

/**
 * Runs Vcc sweeps across a thread pool.  The single-threaded
 * VccSweep engine delegates here, so both produce identical rows.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const Simulator &sim, RunnerConfig cfg = {})
        : _sim(sim), _cfg(cfg)
    {}

    /** Effective worker count after resolving threads=0. */
    unsigned effectiveThreads() const;

    /** Effective configs per work item after clamping 0 to 1. */
    unsigned
    effectiveChunkSize() const
    {
        return _cfg.chunkSize == 0 ? 1 : _cfg.chunkSize;
    }

    /**
     * Execute the full Figure 11/12 sweep: every (voltage, trace,
     * machine) point runs as its own task.  The energy model is
     * calibrated on the baseline machine at 600 mV exactly as in the
     * serial engine.
     */
    std::vector<SweepRow> run(const SweepConfig &cfg) const;

    /** Aggregate one machine over the suite at one voltage. */
    MachineAtVcc runMachine(const SweepConfig &cfg,
                            circuit::MilliVolts vcc,
                            mechanism::IrawMode mode) const;

    /**
     * Aggregate many machines in one parallel wave — the bench
     * driver's workhorse (e.g. 13 voltages x 2 machines x 9 traces
     * as 234 independent tasks).  Results arrive in @p points order.
     * Points whose behaviour class repeats an earlier point are
     * aliased instead of simulated (see the file comment).
     */
    std::vector<MachineAtVcc>
    runMachines(const SweepConfig &cfg,
                const std::vector<MachinePoint> &points) const;

    /**
     * Run arbitrary simulation configs as one parallel wave;
     * results arrive in @p configs order.  The escape hatch for
     * sweeps whose points differ in more than (Vcc, mode) — e.g.
     * one machine per workload or per core config.  Configs sharing
     * a trace run in chunks of effectiveChunkSize() configs.
     */
    std::vector<SimResult>
    runConfigs(const std::vector<SimConfig> &configs) const;

    /**
     * Fold per-trace results (in suite order) into the suite
     * aggregate.  Exposed so tests can verify the reduction is
     * independent of execution order.
     */
    static MachineAtVcc merge(circuit::MilliVolts vcc,
                              const std::vector<SimResult> &results);

  private:
    /** The in-process (thread pool) execution path of runConfigs. */
    std::vector<SimResult>
    runLocal(const std::vector<SimConfig> &configs) const;

    /** Fold per-wave runner/perf/adapt counters into the telemetry
     *  registry (no-op without a session). */
    void foldTelemetry(const std::vector<SimConfig> &configs,
                       const std::vector<SimResult> &results) const;

    const Simulator &_sim;
    RunnerConfig _cfg;
};

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_RUNNER_HH
