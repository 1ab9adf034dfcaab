/**
 * @file
 * Design-space ablations around the IRAW mechanisms, each tied to the
 * paper claim it probes:
 *
 *  - stabilization-cycle sweep N=1..4 at 400 mV (the paper's
 *    flexibility claim for other technology nodes, Sec. 4.1.3);
 *  - bypass-depth sensitivity (deeper bypass hides the bubble);
 *  - per-workload speedup at 500 mV (the suite behind the averages).
 */

#include <map>
#include <ostream>
#include <utility>

#include "common/table.hh"
#include "core/pipeline.hh"
#include "sim/scenario.hh"
#include "trace/trace_store.hh"

namespace {

using namespace iraw;

struct AblRun
{
    double ipc = 0.0;
    double delayedFrac = 0.0;
};

/**
 * The N- and bypass-sweeps replay one (workload, seed) trace across
 * many machine configurations; materialize it once instead of
 * regenerating it per configuration (trace= substitutes a file).
 */
trace::TraceBufferPtr
ablationTrace(sim::ScenarioContext &ctx, const std::string &workload,
              uint64_t insts)
{
    core::CoreConfig cfg;
    return ctx.materializeTrace(
        workload, 1, trace::replayLength(insts, cfg.iqEntries));
}

/** One (stabilization cycles N, bypass levels) machine. */
using AblKey = std::pair<uint32_t, uint32_t>;

/**
 * All distinct (N, bypass) machines of both sweeps, each a plain
 * Pipeline replaying the shared trace, one after another: the N-sweep
 * and bypass-sweep tables overlap in two configurations, so the 7
 * unique machines run once and the tables look their rows up by key.
 */
std::map<AblKey, AblRun>
runAblationMachines(const trace::TraceBufferPtr &buffer, uint64_t insts)
{
    constexpr uint32_t kDramCycles = 120;
    constexpr AblKey kPoints[] = {
        {0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {1, 2}, {1, 3},
    };
    std::map<AblKey, AblRun> runs;
    for (auto [n, bypass] : kPoints) {
        core::CoreConfig cfg;
        cfg.bypassLevels = bypass;
        // Deeper bypass or larger N needs a wider shift register
        // (latency + bypass + N + 1 must fit, Sec. 4.1.2).
        cfg.scoreboardBits = 8 + bypass + 2;
        trace::ReplayTraceSource src(buffer);
        memory::MemoryHierarchy mem(memory::MemoryConfig{});
        mem.setDramLatencyCycles(kDramCycles);
        core::Pipeline pipe(cfg, mem, src);
        mechanism::IrawSettings s;
        s.enabled = n > 0;
        s.stabilizationCycles = n;
        pipe.applySettings(s);
        const core::PipelineStats &st = pipe.run(insts);
        AblRun &r = runs[{n, bypass}];
        r.ipc = st.ipc();
        r.delayedFrac = static_cast<double>(st.rfIrawDelayedInsts) /
                        st.committedInsts;
    }
    return runs;
}

int
runDesignSpace(sim::ScenarioContext &ctx)
{
    using namespace iraw::sim;
    uint64_t insts = ctx.opts().getUint("insts", 60000);

    trace::TraceBufferPtr trace =
        ablationTrace(ctx, "spec2006int", insts);

    // The 7 distinct machines of both sweeps, over the shared trace.
    const std::map<AblKey, AblRun> runs =
        runAblationMachines(trace, insts);

    // N sweep: the IPC cost of deeper stabilization windows (other
    // nodes / lower Vcc ranges would need N >= 2).
    TextTable nsweep("Ablation: stabilization cycles N "
                     "(IPC at a fixed clock, spec2006int)");
    nsweep.setHeader({"N", "IPC", "IPC vs N=0", "delayed insts"});
    const AblRun &base = runs.at({0, 1});
    for (uint32_t n = 0; n <= 4; ++n) {
        const AblRun &r = runs.at({n, 1});
        nsweep.addRow({
            std::to_string(n),
            TextTable::num(r.ipc, 3),
            TextTable::pct(r.ipc / base.ipc - 1.0, 2),
            TextTable::pct(r.delayedFrac, 1),
        });
    }
    nsweep.addNote("each extra stabilization cycle widens the "
                   "scoreboard bubble and the fill-stall windows");
    nsweep.print(ctx.out());

    // Bypass depth: a second bypass level covers the cycle the
    // bubble would otherwise block.
    TextTable bysweep("Ablation: bypass depth under IRAW (N=1)");
    bysweep.setHeader({"bypass levels", "IPC", "delayed insts"});
    for (uint32_t b = 1; b <= 3; ++b) {
        const AblRun &r = runs.at({1, b});
        bysweep.addRow({
            std::to_string(b),
            TextTable::num(r.ipc, 3),
            TextTable::pct(r.delayedFrac, 1),
        });
    }
    bysweep.addNote("deeper bypass absorbs consumers that would hit "
                    "the stabilization window (cf. the synergy with "
                    "incomplete-bypass designs, Sec. 4.1.2)");
    bysweep.print(ctx.out());

    // Per-workload speedups at 500 mV: all (workload, machine)
    // simulations run as one parallel wave.  With trace= every
    // workload would replay the same file, so show a single row.
    std::vector<std::string> names = trace::profileNames();
    if (!ctx.settings().tracePath.empty())
        names = {ctx.settings().tracePath};
    std::vector<SimConfig> cfgs;
    cfgs.reserve(2 * names.size());
    for (const auto &name : names) {
        for (auto mode : {mechanism::IrawMode::ForcedOff,
                          mechanism::IrawMode::Auto}) {
            SimConfig sc;
            sc.workload = name;
            sc.tracePath = ctx.settings().tracePath;
            sc.instructions = insts;
            sc.warmupInstructions = ctx.settings().warmup;
            sc.vcc = 500;
            sc.mode = mode;
            cfgs.push_back(sc);
        }
    }
    auto results = ctx.runner().runConfigs(cfgs);

    TextTable pw("Per-workload IRAW speedup at 500 mV");
    pw.setHeader({"workload", "IPC base", "IPC iraw", "speedup"});
    for (size_t i = 0; i < names.size(); ++i) {
        auto b = SweepRunner::merge(500, {results[2 * i]});
        auto m = SweepRunner::merge(500, {results[2 * i + 1]});
        pw.addRow({
            names[i],
            TextTable::num(b.ipc, 3),
            TextTable::num(m.ipc, 3),
            TextTable::num(m.performance() / b.performance(), 3),
        });
    }
    pw.addNote("the paper reports suite averages over 531 traces; "
               "per-category spread is expected");
    pw.print(ctx.out());
    return 0;
}

} // namespace

IRAW_SCENARIO("ablation_design_space",
              "Design-space ablations: stabilization cycles, bypass "
              "depth, per-workload speedup",
              runDesignSpace);
