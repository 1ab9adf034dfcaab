#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <sstream>
#include <system_error>
#include <thread>
#include <tuple>

#include "common/logging.hh"
#include "obs/telemetry.hh"
#include "service/supervisor.hh"

namespace iraw {
namespace sim {

unsigned
SweepRunner::effectiveThreads() const
{
    if (_cfg.threads != 0)
        return _cfg.threads;
    return std::max(1u, std::thread::hardware_concurrency());
}

MachineAtVcc
SweepRunner::merge(circuit::MilliVolts vcc,
                   const std::vector<SimResult> &results)
{
    MachineAtVcc m;
    m.vcc = vcc;
    for (const SimResult &r : results) {
        m.irawEnabled = r.settings.enabled;
        m.stabilizationCycles = r.settings.stabilizationCycles;
        m.cycleTimeAu = r.cycleTimeAu;
        m.instructions += r.pipeline.committedInsts;
        m.cycles += r.pipeline.cycles;
        m.execTimeAu += r.execTimeAu;
        m.rfIrawStalls += r.pipeline.rfIrawStallCycles;
        m.iqGateStalls += r.pipeline.iqGateStallCycles;
        m.dl0IrawStalls += r.pipeline.dl0ReplayStallCycles +
                           r.dl0GuardStalls;
        m.otherIrawStalls += r.otherGuardStalls;
        m.rfIrawDelayedInsts += r.pipeline.rfIrawDelayedInsts;
    }
    m.ipc = m.cycles ? static_cast<double>(m.instructions) / m.cycles
                     : 0.0;
    return m;
}

std::string
traceGroupKey(const SimConfig &cfg)
{
    std::ostringstream os;
    os << cfg.workload << '|' << cfg.tracePath << '|' << cfg.seed
       << '|' << cfg.instructions << '|' << cfg.warmupInstructions;
    return os.str();
}

std::vector<std::vector<size_t>>
traceGroupedChunks(const std::vector<SimConfig> &configs,
                   size_t chunkSize)
{
    std::vector<std::vector<size_t>> chunks;
    std::map<std::string, size_t> groupOf;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < configs.size(); ++i) {
        auto [it, inserted] =
            groupOf.emplace(traceGroupKey(configs[i]), groups.size());
        if (inserted)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    for (const std::vector<size_t> &group : groups) {
        for (size_t at = 0; at < group.size(); at += chunkSize) {
            size_t end = std::min(at + chunkSize, group.size());
            chunks.emplace_back(group.begin() + at,
                                group.begin() + end);
        }
    }
    return chunks;
}

std::vector<SimResult>
SweepRunner::runConfigs(const std::vector<SimConfig> &configs) const
{
    // Service mode: hand the whole wave to the fault-tolerant
    // multi-process supervisor.  It decomposes the work with the
    // same traceGroupedChunks call, so the shards ARE the chunks,
    // and each worker runs its shard's configs one by one exactly
    // like runLocal does.
    std::vector<SimResult> results =
        _cfg.service ? service::runSharded(_sim, *_cfg.service,
                                           configs,
                                           effectiveChunkSize())
                     : runLocal(configs);
    foldTelemetry(configs, results);
    return results;
}

std::vector<SimResult>
SweepRunner::runLocal(const std::vector<SimConfig> &configs) const
{
    obs::EventTracer *tracer =
        _cfg.telemetry ? _cfg.telemetry->tracer().get() : nullptr;
    obs::ProgressMeter *meter =
        _cfg.telemetry ? _cfg.telemetry->progress().get() : nullptr;
    if (meter)
        meter->addTotal(configs.size());

    std::vector<SimResult> results(configs.size());

    // Group config indices by trace identity (first-appearance
    // order), then cut each group into chunks.
    std::vector<std::vector<size_t>> chunks =
        traceGroupedChunks(configs, effectiveChunkSize());

    // One chunk is one work item running its configs in order;
    // results land at their input index, so execution order (and
    // thread count) never shows.
    auto runChunk = [&](const std::vector<size_t> &chunk) {
        const uint64_t startUs = tracer ? tracer->nowUs() : 0;
        for (size_t i : chunk) {
            if (tracer) {
                SimConfig traced = configs[i];
                traced.tracer = _cfg.telemetry->tracer();
                results[i] = _sim.run(traced);
            } else {
                results[i] = _sim.run(configs[i]);
            }
        }
        if (tracer)
            tracer->complete(
                "sweep.chunk", "sweep", startUs,
                tracer->nowUs() - startUs,
                {obs::EventTracer::arg(
                     "configs", static_cast<uint64_t>(chunk.size())),
                 obs::EventTracer::arg(
                     "group", traceGroupKey(configs[chunk[0]]))});
        if (meter)
            meter->add(chunk.size());
    };

    // The caller and up to threads - 1 helpers claim chunks in index
    // order until none is left or one has failed.  A claimed chunk
    // always runs, so a failure stops only later claims; its
    // exception waits in the chunk's own slot.  With one thread or
    // at most one chunk no thread starts.
    //
    // Sharing contract (TSan-checked by the threaded tests): workers
    // share `results` and `errors` without a lock, but every chunk
    // owns a disjoint set of slots, neither vector is resized while
    // workers run, and the joins are the happens-before edge that
    // publishes every slot to this thread.
    std::vector<std::exception_ptr> errors(chunks.size());
    std::atomic<size_t> nextChunk{0};
    std::atomic<bool> failed{false};
    auto claimChunks = [&] {
        while (!failed.load()) {
            const size_t c = nextChunk++;
            if (c >= chunks.size())
                return;
            try {
                runChunk(chunks[c]);
            } catch (...) {
                errors[c] = std::current_exception();
                failed = true;
            }
        }
    };
    const size_t threads =
        std::min<size_t>(effectiveThreads(), chunks.size());
    std::vector<std::thread> helpers;
    try {
        for (size_t t = 1; t < threads; ++t)
            helpers.emplace_back(claimChunks);
    } catch (const std::system_error &) {
        // A helper the host cannot start only slows the wave: the
        // started ones must still be joined, and the caller claims
        // whatever they leave.
    }
    claimChunks();
    for (std::thread &helper : helpers)
        helper.join();

    // Every chunk below the lowest failure was claimed before it and
    // ran, so this is the error a serial run raises.
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return results;
}

void
SweepRunner::foldTelemetry(const std::vector<SimConfig> &configs,
                           const std::vector<SimResult> &results)
    const
{
    if (!_cfg.telemetry)
        return;
    obs::MetricsRegistry &reg = _cfg.telemetry->metrics();
    reg.counter("runner", "calls", "runConfigs waves").add();
    reg.counter("runner", "configs", "work items executed")
        .add(configs.size());
    reg.counter("runner", "chunks", "trace-grouped chunks scheduled")
        .add(traceGroupedChunks(configs, effectiveChunkSize()).size());

    // Host wall time and adapt transition accounting, folded from
    // the per-run results (service spools carry both).
    uint64_t wallNs = 0;
    uint64_t hostInsts = 0;
    uint64_t adaptRuns = 0, switches = 0, epochs = 0;
    uint64_t settleCycles = 0, drainCycles = 0;
    for (const SimResult &r : results) {
        wallNs += static_cast<uint64_t>(r.host.wallSeconds * 1e9);
        hostInsts += r.host.instructions;
        if (r.adapt.enabled) {
            ++adaptRuns;
            switches += r.adapt.switches;
            epochs += r.adapt.epochs;
            settleCycles += r.adapt.settleCycles;
            drainCycles += r.adapt.drainCycles;
        }
    }
    reg.counter("perf", "sim_wall_ns",
                "host wall nanoseconds inside Pipeline::run")
        .add(wallNs);
    reg.counter("perf", "instructions",
                "instructions committed (incl. warmup)")
        .add(hostInsts);
    if (adaptRuns) {
        reg.counter("adapt", "runs", "adaptive simulations")
            .add(adaptRuns);
        reg.counter("adapt", "switches", "Vcc transitions")
            .add(switches);
        reg.counter("adapt", "epochs", "controller evaluations")
            .add(epochs);
        reg.counter("adapt", "settle_cycles",
                    "cycles idled for transitions")
            .add(settleCycles);
        reg.counter("adapt", "drain_cycles",
                    "cycles draining before transitions")
            .add(drainCycles);
    }
}

std::vector<MachineAtVcc>
SweepRunner::runMachines(const SweepConfig &cfg,
                         const std::vector<MachinePoint> &points) const
{
    fatalIf(cfg.suite.empty(), "SweepRunner: empty workload suite");
    const size_t stride = cfg.suite.size();

    // Behaviour-class dedup: classify every point by (enabled, N,
    // DRAM cycles) -- the only channels through which the operating
    // point reaches the tick loop -- and simulate the suite once per
    // class.  Later points of a class reuse the representative's
    // counters and recompute the derived scaling with the exact
    // expressions a full run evaluates, so the alias is bitwise
    // identical to the run it replaces (host wall time excepted:
    // aliases inherit the representative's, having cost none).
    struct PointInfo
    {
        mechanism::IrawSettings settings;
        uint64_t dramCycles = 0;
        size_t rep = 0;  //!< representative point index
        size_t slot = 0; //!< unique-run slice (valid when rep==self)
    };
    std::vector<PointInfo> info(points.size());
    std::map<std::tuple<bool, uint32_t, uint64_t>, size_t> classes;
    std::vector<size_t> uniquePoints;
    for (size_t p = 0; p < points.size(); ++p) {
        PointInfo &pi = info[p];
        pi.settings = _sim.operatingPoint(points[p].vcc,
                                          points[p].mode);
        pi.dramCycles = Simulator::dramCyclesAt(
            pi.settings.cycleTime, cfg.mem.dramLatencyNs);
        const uint32_t n = pi.settings.enabled
                               ? pi.settings.stabilizationCycles
                               : 0;
        auto key = std::make_tuple(pi.settings.enabled, n,
                                   pi.dramCycles);
        auto [it, inserted] = classes.emplace(key, p);
        pi.rep = it->second;
        if (inserted) {
            pi.slot = uniquePoints.size();
            uniquePoints.push_back(p);
        }
    }

    if (_cfg.telemetry) {
        obs::MetricsRegistry &reg = _cfg.telemetry->metrics();
        reg.counter("runner", "points",
                    "(Vcc, mode) points requested")
            .add(points.size());
        reg.counter("runner", "unique_points",
                    "behaviour classes simulated")
            .add(uniquePoints.size());
        reg.counter("runner", "aliased_points",
                    "points served by dedup")
            .add(points.size() - uniquePoints.size());
    }

    std::vector<SimConfig> configs;
    configs.reserve(uniquePoints.size() * stride);
    for (size_t u : uniquePoints) {
        for (const SuiteEntry &entry : cfg.suite) {
            SimConfig sc;
            sc.core = cfg.core;
            sc.mem = cfg.mem;
            sc.workload = entry.workload;
            sc.tracePath = entry.tracePath;
            sc.seed = entry.seed;
            sc.instructions = entry.instructions;
            sc.warmupInstructions = cfg.warmupInstructions;
            sc.vcc = points[u].vcc;
            sc.mode = points[u].mode;
            configs.push_back(sc);
        }
    }

    std::vector<SimResult> results = runConfigs(configs);

    std::vector<MachineAtVcc> machines;
    machines.reserve(points.size());
    for (size_t p = 0; p < points.size(); ++p) {
        const PointInfo &pi = info[p];
        const size_t base = info[pi.rep].slot * stride;
        std::vector<SimResult> slice(results.begin() + base,
                                     results.begin() + base + stride);
        if (pi.rep != p) {
            for (SimResult &r : slice) {
                r.config.vcc = points[p].vcc;
                r.config.mode = points[p].mode;
                r.settings = pi.settings;
                r.cycleTimeAu = pi.settings.cycleTime;
                r.dramCycles = pi.dramCycles;
                r.execTimeAu =
                    static_cast<double>(r.pipeline.cycles) *
                    r.cycleTimeAu;
            }
        }
        machines.push_back(merge(points[p].vcc, slice));
    }
    return machines;
}

MachineAtVcc
SweepRunner::runMachine(const SweepConfig &cfg,
                        circuit::MilliVolts vcc,
                        mechanism::IrawMode mode) const
{
    return runMachines(cfg, {{vcc, mode}}).front();
}

std::vector<SweepRow>
SweepRunner::run(const SweepConfig &cfg) const
{
    fatalIf(cfg.voltages.empty(), "SweepRunner: empty voltage list");

    // Point 0 is the energy calibration run: the baseline machine at
    // 600 mV (paper Sec. 5.1: leakage is 10% of total energy there).
    std::vector<MachinePoint> points;
    points.reserve(1 + 2 * cfg.voltages.size());
    points.push_back({600.0, mechanism::IrawMode::ForcedOff});
    for (circuit::MilliVolts vcc : cfg.voltages) {
        points.push_back({vcc, mechanism::IrawMode::ForcedOff});
        points.push_back({vcc, mechanism::IrawMode::Auto});
    }

    std::vector<MachineAtVcc> machines = runMachines(cfg, points);

    const MachineAtVcc &ref = machines[0];
    double refTimePerInst =
        ref.execTimeAu / static_cast<double>(ref.instructions);
    circuit::EnergyModel energy(refTimePerInst);

    std::vector<SweepRow> rows;
    rows.reserve(cfg.voltages.size());
    for (size_t i = 0; i < cfg.voltages.size(); ++i) {
        SweepRow row;
        row.vcc = cfg.voltages[i];
        row.baseline = machines[1 + 2 * i];
        row.iraw = machines[2 + 2 * i];

        row.frequencyGain =
            row.baseline.cycleTimeAu / row.iraw.cycleTimeAu;
        row.speedup =
            row.iraw.performance() / row.baseline.performance();

        row.baselineBreakdown = energy.taskEnergy(
            row.vcc, row.baseline.instructions,
            row.baseline.execTimeAu, 0.0);
        // The IRAW hardware is present (and pessimistically active)
        // whenever the machine carries the mechanism.
        row.irawBreakdown = energy.taskEnergy(
            row.vcc, row.iraw.instructions, row.iraw.execTimeAu,
            cfg.irawDynOverhead);

        row.energyBaseline = row.baselineBreakdown.total();
        row.energyIraw = row.irawBreakdown.total();
        row.relativeEnergy = row.energyIraw / row.energyBaseline;
        row.relativeDelay =
            row.iraw.execTimeAu / row.baseline.execTimeAu;
        row.relativeEdp = row.relativeEnergy * row.relativeDelay;
        rows.push_back(row);
    }
    return rows;
}

} // namespace sim
} // namespace iraw
