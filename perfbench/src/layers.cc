#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include <unistd.h>

#include "circuit/voltage.hh"
#include "memory/hierarchy.hh"
#include "obs/telemetry.hh"
#include "predictor/predictor_dispatch.hh"
#include "service/supervisor.hh"
#include "sim/adapt_analysis.hh"
#include "sim/scenario.hh"
#include "sim/yield_analysis.hh"
#include "spans.hh"
#include "variation/population.hh"

namespace perfbench {

using namespace iraw;
using namespace iraw::sim;

namespace {

/** Keeps the probes' timed loops observable to the optimizer. */
volatile uint64_t gSink = 0;

/** Simulations the profile=1 overhead is measured on. */
constexpr size_t kProfileSample = 60;

/** Ordered metric list, rendered as one JSON object. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value)
    {
        _values.emplace_back(name, value);
    }

    void
    write(std::ostream &os) const
    {
        os << '{';
        for (size_t i = 0; i < _values.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g",
                          _values[i].second);
            os << (i ? ", " : "") << '"' << _values[i].first
               << "\": " << buf;
        }
        os << "}\n";
    }

  private:
    std::vector<std::pair<std::string, double>> _values;
};

/** Total seconds of every span named @p name. */
double
spanSeconds(const SpanLog &log, const std::string &name)
{
    uint64_t ns = 0;
    for (const SpanLog::Span &s : log.spans())
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Simulated counters and host time of Simulator::run calls. */
struct EngineTotals
{
    double runS = 0.0;      //!< Σ Simulator::run wall
    double pipelineS = 0.0; //!< Σ Pipeline::run wall (SimResult.host)
    double measuredPipelineS = 0.0; //!< its measured-window share
    uint64_t cycles = 0;
    uint64_t insts = 0;
    uint64_t hostInsts = 0; //!< warm-up included
    uint64_t stallCycles = 0;
    uint64_t iqEmptyCycles = 0;
    uint64_t irawStallCycles = 0;
};

/** Every config through Simulator::run, one sim.engine span each
 *  with its Pipeline::run time as a core.pipeline child. */
EngineTotals
enginePass(const Simulator &sim,
           const std::vector<std::vector<SimConfig>> &waves,
           bool profile, SpanLog *log,
           std::vector<SimResult> *results = nullptr)
{
    EngineTotals t;
    for (const std::vector<SimConfig> &wave : waves) {
        for (SimConfig cfg : wave) {
            cfg.profile = profile;
            Scope span(log, "sim.engine");
            SimResult r = sim.run(cfg);
            t.runS += span.seconds();
            if (log) {
                const uint64_t end = nowNs();
                log->add("core.pipeline",
                         end - static_cast<uint64_t>(
                                   r.host.wallSeconds * 1e9),
                         end);
            }
            const core::PipelineStats &p = r.pipeline;
            t.pipelineS += r.host.wallSeconds;
            t.measuredPipelineS +=
                r.host.wallSeconds *
                ratio(static_cast<double>(p.committedInsts),
                      static_cast<double>(r.host.instructions));
            t.cycles += p.cycles;
            t.insts += p.committedInsts;
            t.hostInsts += r.host.instructions;
            t.stallCycles += p.rawStallCycles + p.rfIrawStallCycles +
                             p.wawStallCycles +
                             p.structuralStallCycles +
                             p.iqGateStallCycles +
                             p.dl0ReplayStallCycles;
            t.iqEmptyCycles += p.iqEmptyCycles;
            t.irawStallCycles += p.rfIrawStallCycles +
                                 p.iqGateStallCycles +
                                 p.dl0ReplayStallCycles +
                                 r.dl0GuardStalls + r.otherGuardStalls;
            if (results)
                results->push_back(std::move(r));
        }
    }
    return t;
}

/** True when two result lists carry identical simulated counters. */
bool
sameSimulation(const std::vector<SimResult> &a,
               const std::vector<SimResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].pipeline.cycles != b[i].pipeline.cycles ||
            a[i].pipeline.committedInsts !=
                b[i].pipeline.committedInsts ||
            a[i].execTimeAu != b[i].execTimeAu)
            return false;
    return true;
}

/** The memory hierarchy on each trace's fetch-line/load/store
 *  stream, one access at a time. */
void
memoryProbe(const std::vector<trace::TraceBufferPtr> &buffers,
            SpanLog *log, Metrics &m)
{
    const memory::MemoryConfig cfg;
    unsigned lineShift = 0;
    while ((1ull << lineShift) < cfg.il0.lineBytes)
        ++lineShift;
    uint64_t accesses = 0, dl0Acc = 0, dl0Miss = 0, ul1Acc = 0,
             ul1Miss = 0;
    double seconds = 0.0;
    for (const trace::TraceBufferPtr &buffer : buffers) {
        memory::MemoryHierarchy mem(cfg);
        const isa::MicroOp *ops = buffer->ops();
        Scope span(log, "memory.replay");
        memory::Cycle cycle = 0;
        uint64_t line = ~0ull;
        for (uint64_t i = 0; i < buffer->records(); ++i) {
            const isa::MicroOp &op = ops[i];
            ++cycle;
            if ((op.pc >> lineShift) != line) {
                line = op.pc >> lineShift;
                cycle = std::max(cycle,
                                 mem.instFetch(op.pc, cycle).readyCycle);
                ++accesses;
            }
            if (op.isLoad()) {
                cycle = std::max(
                    cycle, mem.dataLoad(op.memAddr, cycle).readyCycle);
                ++accesses;
            } else if (op.isStore()) {
                mem.dataStore(op.memAddr, cycle);
                ++accesses;
            }
        }
        seconds += span.seconds();
        dl0Acc += mem.dl0().accesses();
        dl0Miss += mem.dl0().misses();
        ul1Acc += mem.ul1().accesses();
        ul1Miss += mem.ul1().misses();
    }
    m.set("memory.accesses", static_cast<double>(accesses));
    m.set("memory.ns_per_access",
          ratio(seconds * 1e9, static_cast<double>(accesses)));
    m.set("memory.dl0_miss_ratio",
          ratio(static_cast<double>(dl0Miss),
                static_cast<double>(dl0Acc)));
    m.set("memory.ul1_miss_ratio",
          ratio(static_cast<double>(ul1Miss),
                static_cast<double>(ul1Acc)));
}

/** The core's direction predictor on each trace's branch stream. */
void
predictorProbe(const std::vector<trace::TraceBufferPtr> &buffers,
               SpanLog *log, Metrics &m)
{
    const core::CoreConfig core;
    uint64_t lookups = 0, correct = 0;
    double seconds = 0.0;
    for (const trace::TraceBufferPtr &buffer : buffers) {
        predictor::InlinePredictor bp(core.predictorKind,
                                      core.predictorEntries,
                                      core.predictorHistoryBits);
        const isa::MicroOp *ops = buffer->ops();
        Scope span(log, "predictor.replay");
        for (uint64_t i = 0; i < buffer->records(); ++i) {
            if (ops[i].opClass != isa::OpClass::Branch)
                continue;
            const bool taken = ops[i].taken;
            correct += bp.predictAndTrain(ops[i].pc, taken).taken ==
                       taken;
            ++lookups;
        }
        seconds += span.seconds();
    }
    m.set("predictor.lookups", static_cast<double>(lookups));
    m.set("predictor.ns_per_lookup",
          ratio(seconds * 1e9, static_cast<double>(lookups)));
    m.set("predictor.accuracy",
          ratio(static_cast<double>(correct),
                static_cast<double>(lookups)));
}

/** Replay cursors over every buffer (several passes, so the time is
 *  well above the clock's resolution). */
double
replayNsPerOp(const std::vector<trace::TraceBufferPtr> &buffers,
              SpanLog *log)
{
    constexpr int kPasses = 16;
    uint64_t ops = 0, sum = 0;
    Scope span(log, "trace.replay");
    for (int pass = 0; pass < kPasses; ++pass) {
        for (const trace::TraceBufferPtr &buffer : buffers) {
            trace::ReplayTraceSource source(buffer);
            while (const isa::MicroOp *op = source.take()) {
                sum += op->pc ^ op->memAddr;
                ++ops;
            }
        }
    }
    const double seconds = span.seconds();
    gSink = sum;
    return ratio(seconds * 1e9, static_cast<double>(ops));
}

/** Host cost of one operating-point reconfiguration. */
double
reconfigureUs(const Simulator &sim, SpanLog *log)
{
    constexpr int kRounds = 200;
    const std::vector<circuit::MilliVolts> sweep =
        circuit::standardSweep();
    const mechanism::IrawMode modes[] = {
        mechanism::IrawMode::ForcedOff, mechanism::IrawMode::Auto,
        mechanism::IrawMode::ForcedOn};
    uint64_t calls = 0, sum = 0;
    Scope span(log, "iraw.reconfigure");
    for (int r = 0; r < kRounds; ++r)
        for (circuit::MilliVolts v : sweep)
            for (mechanism::IrawMode mode : modes) {
                sum += sim.operatingPoint(v, mode).stabilizationCycles;
                ++calls;
            }
    const double seconds = span.seconds();
    gSink = sum;
    return ratio(seconds * 1e6, static_cast<double>(calls));
}

/**
 * Epoch-chunking overhead: the suite at 550 mV under a Static
 * controller against the identical fixed-Vcc runs (bitwise equal by
 * invariant), alternating, median of three each.
 */
bool
chunkingProbe(const Simulator &sim,
              const std::vector<SuiteEntry> &suite, SpanLog *log,
              Metrics &m)
{
    ScenarioSettings settings;
    settings.suite = suite;
    settings.warmup = kWarmup;
    adapt::AdaptConfig acfg;
    acfg.epochCycles = 2000;
    acfg.switchCycles = 500;
    acfg.validate();
    const std::vector<SimConfig> fixed = adaptConfigsOverSuite(
        settings, 550.0, mechanism::IrawMode::Auto, nullptr);
    const std::vector<SimConfig> chunked = adaptConfigsOverSuite(
        settings, 550.0, mechanism::IrawMode::Auto,
        std::make_shared<adapt::AdaptConfig>(acfg));

    std::vector<double> fixedS, chunkedS;
    bool same = true;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<SimResult> a, b;
        {
            Scope span(log, "adapt.fixed_runs");
            enginePass(sim, {fixed}, false, nullptr, &a);
            fixedS.push_back(span.seconds());
        }
        {
            Scope span(log, "adapt.static_controller_runs");
            enginePass(sim, {chunked}, false, nullptr, &b);
            chunkedS.push_back(span.seconds());
        }
        same = same && sameSimulation(a, b);
    }
    m.set("adapt.chunking_overhead_pct",
          100.0 * (ratio(median(chunkedS), median(fixedS)) - 1.0));
    return same;
}

/** Operability scan of the workload's chip population. */
void
variationProbe(uint64_t seed, const Simulator &sim, SpanLog *log,
               Metrics &m)
{
    const std::string seedArg =
        "chipseed=" + std::to_string(chipSeed(seed));
    const char *argv[] = {"perfbench", seedArg.c_str()};
    const OptionMap opts = OptionMap::parse(2, argv);
    std::ostringstream sink;
    ScenarioContext ctx(opts, sink, sim.traceStore());
    const variation::PopulationConfig cfg = parsePopulationConfig(
        ctx, 32, variation::SimulateMode::None);
    Scope span(log, "variation.scan");
    const variation::PopulationResult result =
        variation::ChipPopulation(sim, RunnerConfig(1, kBatch))
            .run(cfg);
    m.set("variation.scan_ms_per_chip",
          ratio(span.seconds() * 1e3, cfg.chips));
    m.set("variation.yield",
          ratio(result.yieldingChips, result.totalChips));
}

uint64_t
directoryBytes(const std::filesystem::path &dir)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec))
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    return bytes;
}

/**
 * The workload's largest wave through a 2-worker sharded session
 * against the same wave in-process on 2 threads.  Returns false
 * when the two disagree.
 */
bool
serviceProbe(const Simulator &sim, const std::vector<SimConfig> &wave,
             const std::string &workDir, SpanLog *log, Metrics &m)
{
    std::vector<SimResult> local, sharded;
    double localS = 0.0, shardedS = 0.0;
    {
        Scope span(log, "sim.runner.in_process");
        local = SweepRunner(sim, RunnerConfig(2, kBatch))
                    .runConfigs(wave);
        localS = span.seconds();
    }
    service::ServiceConfig scfg;
    scfg.workers = 2;
    scfg.spoolDir =
        workDir + "/spool-" + std::to_string(::getpid());
    auto session =
        std::make_shared<service::ServiceSession>(scfg);
    {
        Scope span(log, "service.sharded");
        sharded = SweepRunner(sim, RunnerConfig(2, kBatch, session))
                      .runConfigs(wave);
        shardedS = span.seconds();
    }
    const service::ServiceStats stats = session->stats();
    m.set("service.overhead_ratio", ratio(shardedS, localS));
    m.set("service.spool_mb",
          static_cast<double>(directoryBytes(scfg.spoolDir)) /
              (1024.0 * 1024.0));
    m.set("service.retries", static_cast<double>(stats.retries));
    std::error_code ec;
    std::filesystem::remove_all(scfg.spoolDir, ec);
    return stats.shardsFailed == 0 && sameSimulation(local, sharded);
}

} // namespace

int
runLayers(WorkloadId id, uint64_t seed,
          const std::string &chromeTracePath,
          const std::string &workDir, std::ostream &out)
{
    SpanLog log;
    Metrics m;
    const unsigned threads = workloadThreads(id);

    // The traced workload: set-up plus the runner calls, exactly as
    // the untraced runs execute them, with a metrics-only telemetry
    // session on the runner for its own runner.*, perf.* and adapt.*
    // counters.
    RunnerConfig runnerCfg(threads, kBatch);
    runnerCfg.telemetry =
        std::make_shared<obs::TelemetrySession>(obs::TelemetryConfig());
    Prepared prep;
    WorkloadOutput wl;
    double tracedWallS = 0.0, runnerS = 0.0;
    {
        Scope span(&log, "workload");
        prep = prepare(id, seed, &log);
        Scope runner(&log, "sim.runner");
        wl = runWorkload(id, seed, *prep.sim, runnerCfg, &log);
        runnerS = runner.seconds();
        tracedWallS = span.seconds();
    }
    const Simulator &sim = *prep.sim;
    const trace::TraceStore::Stats store = sim.traceStore()->stats();
    obs::MetricsRegistry &reg = runnerCfg.telemetry->metrics();

    // The runner at threads=1, for its own overhead.
    RunnerConfig serialCfg = runnerCfg;
    double runner1S = runnerS;
    if (threads != 1) {
        serialCfg.threads = 1;
        serialCfg.telemetry = std::make_shared<obs::TelemetrySession>(
            obs::TelemetryConfig());
        Scope span(&log, "sim.runner");
        runWorkload(id, seed, sim, serialCfg, &log);
        runner1S = span.seconds();
    }
    const double serialSimS =
        static_cast<double>(
            serialCfg.telemetry->metrics()
                .counter("perf", "sim_wall_ns")
                .value()) *
        1e-9;

    EngineTotals e;
    {
        Scope span(&log, "engine_pass");
        e = enginePass(sim, wl.waves, false, &log);
    }
    // profile=1 cost on the first simulations, against the same ones
    // without it.
    std::vector<SimConfig> sample;
    for (const std::vector<SimConfig> &wave : wl.waves)
        for (const SimConfig &cfg : wave)
            if (sample.size() < kProfileSample)
                sample.push_back(cfg);
    double plainS = 0.0, profiledS = 0.0;
    {
        Scope span(&log, "engine_pass_profiled");
        plainS = enginePass(sim, {sample}, false, nullptr).runS;
        profiledS = enginePass(sim, {sample}, true, nullptr).runS;
    }

    m.set("workload.traced_wall_s", tracedWallS);
    m.set("circuit.construct_ms",
          spanSeconds(log, "sim.construct") * 1e3);
    m.set("core.ns_per_cycle",
          ratio(e.measuredPipelineS * 1e9,
                static_cast<double>(e.cycles)));
    m.set("core.ns_per_inst",
          ratio(e.pipelineS * 1e9, static_cast<double>(e.hostInsts)));
    m.set("core.sim_cycles", static_cast<double>(e.cycles));
    m.set("core.committed_insts", static_cast<double>(e.insts));
    m.set("core.stall_cycle_share",
          ratio(static_cast<double>(e.stallCycles),
                static_cast<double>(e.cycles)));
    m.set("core.iq_empty_share",
          ratio(static_cast<double>(e.iqEmptyCycles),
                static_cast<double>(e.cycles)));
    m.set("iraw.stall_cycle_share",
          ratio(static_cast<double>(e.irawStallCycles),
                static_cast<double>(e.cycles)));
    m.set("iraw.reconfigure_us", reconfigureUs(sim, &log));

    memoryProbe(prep.buffers, &log, m);
    predictorProbe(prep.buffers, &log, m);

    double bufferBytes = 0.0;
    for (const trace::TraceBufferPtr &b : prep.buffers)
        bufferBytes += static_cast<double>(b->bytes()) +
                       static_cast<double>(b->records()) *
                           sizeof(isa::MicroOp);
    m.set("trace.materialize_ms",
          spanSeconds(log, "trace.materialize") * 1e3);
    m.set("trace.decode_ms", spanSeconds(log, "trace.decode") * 1e3);
    m.set("trace.replay_ns_per_op", replayNsPerOp(prep.buffers, &log));
    m.set("trace.buffer_mb", bufferBytes / (1024.0 * 1024.0));
    m.set("trace.store_hits", static_cast<double>(store.hits));
    m.set("trace.store_misses", static_cast<double>(store.misses));

    // The runner's own counters from the traced workload.
    auto count = [&reg](const char *group, const char *name) {
        return static_cast<double>(reg.counter(group, name).value());
    };
    const double points = count("runner", "points");
    const double simS = count("perf", "sim_wall_ns") * 1e-9;
    m.set("sim.engine_self_ms", (e.runS - e.pipelineS) * 1e3);
    m.set("sim.runner_self_ms", (runner1S - serialSimS) * 1e3);
    // Workloads that never call runMachines have no dedup to apply.
    m.set("sim.runner_dedup_ratio",
          points > 0 ? count("runner", "unique_points") / points : 1.0);
    m.set("sim.runner_chunks", count("runner", "chunks"));
    m.set("sim.simulations", count("runner", "configs"));
    m.set("common.pool_idle_share",
          1.0 - ratio(simS, threads * runnerS));

    m.set("adapt.epochs", count("adapt", "epochs"));
    m.set("adapt.switches", count("adapt", "switches"));
    m.set("adapt.drain_cycles", count("adapt", "drain_cycles"));
    m.set("adapt.settle_cycles", count("adapt", "settle_cycles"));
    bool ok = chunkingProbe(sim, workloadSuite(id, seed), &log, m);

    variationProbe(seed, sim, &log, m);

    const std::vector<SimConfig> *largest = &wl.waves.front();
    for (const std::vector<SimConfig> &wave : wl.waves)
        if (wave.size() > largest->size())
            largest = &wave;
    ok = serviceProbe(sim, *largest, workDir, &log, m) && ok;

    m.set("obs.profile_overhead_x", ratio(profiledS, plainS));

    if (!log.writeChromeTrace(chromeTracePath)) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     chromeTracePath.c_str());
        return 1;
    }
    m.write(out);
    return ok ? 0 : 1;
}

} // namespace perfbench
