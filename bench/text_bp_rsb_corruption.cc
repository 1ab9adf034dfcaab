/**
 * @file
 * Reproduces the Sec. 4.5 prediction-block analysis: BP reads that
 * land in a stabilization window (the paper's "negligible 0.0017%
 * average potential extra misprediction rate"), RSB call/return
 * distance safety, the optional determinism mode, and a corruption-
 * injection experiment showing the performance impact of simply
 * ignoring IRAW in prediction-only blocks.
 */

#include <algorithm>
#include <ostream>

#include "common/table.hh"
#include "core/pipeline.hh"
#include "sim/scenario.hh"
#include "trace/analyzer.hh"
#include "trace/trace_store.hh"

namespace {

/** Ops per workload: covers the 120k-inst runs and the analyzer. */
constexpr uint64_t kBpRsbTraceOps = 200000;

struct PredRun
{
    double bpConflictRate = 0.0;
    uint64_t rsbWindowPops = 0;
    uint64_t rsbDeterminismStalls = 0;
    uint64_t injected = 0;
    double ipc = 0.0;
};

/** One materialization per workload, shared by every run below. */
iraw::trace::TraceBufferPtr
bpRsbTrace(iraw::sim::ScenarioContext &ctx,
           const std::string &workload)
{
    return ctx.materializeTrace(workload, 1, kBpRsbTraceOps);
}

PredRun
runOne(const iraw::trace::TraceBufferPtr &trace, bool determinism,
       bool inject)
{
    using namespace iraw;
    core::CoreConfig cfg;
    cfg.determinismMode = determinism;
    cfg.injectPredictionCorruption = inject;
    memory::MemoryConfig mc;
    trace::ReplayTraceSource src(trace);
    memory::MemoryHierarchy mem(mc);
    mem.setDramLatencyCycles(100);
    core::Pipeline pipe(cfg, mem, src);
    mechanism::IrawSettings s;
    s.enabled = true;
    s.stabilizationCycles = 1;
    pipe.applySettings(s);
    const auto &st = pipe.run(120000);
    PredRun r;
    r.bpConflictRate = pipe.bpCorruption().conflictRate();
    r.rsbWindowPops = st.rsbConflictPops;
    r.rsbDeterminismStalls = st.rsbDeterminismStalls;
    r.injected = st.injectedCorruptions;
    r.ipc = st.ipc();
    return r;
}

int
runBpRsb(iraw::sim::ScenarioContext &ctx)
{
    using namespace iraw;

    TextTable table("Sec. 4.5: prediction-block IRAW exposure "
                    "(N = 1, per workload)");
    table.setHeader({"workload", "BP conflict rate", "RSB window "
                                                     "pops",
                     "IPC ignore", "IPC inject", "IPC determinism"});
    // With trace= every workload would replay the same file; show
    // it as the single row it is.
    std::vector<std::string> workloads = {"spec2006int", "office",
                                          "server", "kernels"};
    std::vector<std::string> rsbWorkloads = {"spec2006int",
                                             "office", "server"};
    if (!ctx.settings().tracePath.empty()) {
        workloads = {ctx.settings().tracePath};
        rsbWorkloads = workloads;
    }

    double worstConflict = 0.0;
    for (const std::string &w : workloads) {
        trace::TraceBufferPtr trace = bpRsbTrace(ctx, w);
        PredRun ignore = runOne(trace, false, false);
        PredRun inject = runOne(trace, false, true);
        PredRun determ = runOne(trace, true, false);
        worstConflict =
            std::max(worstConflict, ignore.bpConflictRate);
        table.addRow({
            w,
            TextTable::pct(ignore.bpConflictRate, 4),
            std::to_string(ignore.rsbWindowPops),
            TextTable::num(ignore.ipc, 3),
            TextTable::num(inject.ipc, 3),
            TextTable::num(determ.ipc, 3),
        });
    }
    table.addNote("paper: potential extra misprediction rate "
                  "averages 0.0017% -- reads almost never land on "
                  "an entry updated (with a direction flip) in the "
                  "previous cycle");
    table.addNote("injecting the corruption (flip on conflict) and "
                  "the determinism stalls both leave IPC essentially "
                  "unchanged, validating the 'ignore IRAW' policy");
    table.print(ctx.out());

    // RSB safety argument: the shortest call->return distance in the
    // synthetic programs (the paper found no function short enough
    // to race a 1-2 cycle stabilization window).
    TextTable rsb("RSB safety: shortest call->return distance");
    rsb.setHeader({"workload", "min gap (insts)"});
    for (const std::string &w : rsbWorkloads) {
        auto stats = trace::TraceAnalyzer::analyze(
            *bpRsbTrace(ctx, w), kBpRsbTraceOps);
        rsb.addRow({w, stats.minCallReturnGap
                           ? std::to_string(*stats.minCallReturnGap)
                           : "none"});
    }
    rsb.addNote("paper: no function executes call->return within "
                "1-2 cycles, so unprotected RSB entries always "
                "stabilize before their pop");
    rsb.print(ctx.out());
    return 0;
}

} // namespace

IRAW_SCENARIO("text_bp_rsb_corruption",
              "Sec. 4.5: BP/RSB stabilization-window exposure, "
              "corruption injection and determinism mode",
              runBpRsb);
