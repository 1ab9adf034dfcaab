/**
 * @file
 * Cycle-loop throughput microbench: runs the full pipeline on
 * representative operating points, reports simulator speed as
 * Minsts per wall second with the per-stage profile breakdown, and
 * emits a machine-readable BENCH_pipeline.json so the perf
 * trajectory is recorded run over run (CI uploads it as an
 * artifact).  The simulated aggregates it prints are deterministic;
 * only the wall-clock columns vary between hosts.
 */

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/scenario.hh"
#include "sim/service_probe.hh"
#include "sim/stats_report.hh"

namespace {

using namespace iraw;

struct BenchPoint
{
    const char *name;
    const char *workload;
    circuit::MilliVolts vcc;
    mechanism::IrawMode mode;
};

void
writeJson(const std::string &path, uint64_t insts, uint64_t warmup,
          const std::vector<BenchPoint> &points,
          const std::vector<sim::SimResult> &results,
          const sim::ServiceOverheadResult &service)
{
    std::ofstream os(path);
    if (!os) {
        warn("micro_pipeline_tick: cannot write '%s'", path.c_str());
        return;
    }
    os << "{\n";
    os << "  \"bench\": \"pipeline_tick\",\n";
    os << "  \"insts_per_run\": " << insts << ",\n";
    os << "  \"warmup_insts\": " << warmup << ",\n";
    os << "  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const sim::SimResult &r = results[i];
        os << "    {\n";
        os << "      \"name\": \"" << points[i].name << "\",\n";
        os << "      \"workload\": \"" << points[i].workload
           << "\",\n";
        os << "      \"vcc_mV\": " << points[i].vcc << ",\n";
        os << "      \"iraw\": "
           << (r.settings.enabled ? "true" : "false") << ",\n";
        os << "      \"instructions\": " << r.pipeline.committedInsts
           << ",\n";
        os << "      \"cycles\": " << r.pipeline.cycles << ",\n";
        os << "      \"ipc\": " << r.ipc << ",\n";
        os << "      \"wall_s\": " << r.host.wallSeconds << ",\n";
        os << "      \"minsts_per_s\": "
           << r.host.minstsPerSecond() << ",\n";
        os << "      \"stages\": {";
        for (size_t s = 0; s < StageProfiler::kStages; ++s) {
            auto stage = static_cast<StageProfiler::Stage>(s);
            const auto &st = r.host.stages.stage(stage);
            os << (s ? ", " : "") << "\""
               << StageProfiler::stageName(stage)
               << "\": {\"calls\": " << st.calls
               << ", \"ns\": " << st.ns << "}";
        }
        os << "}\n";
        os << "    }" << (i + 1 < results.size() ? "," : "")
           << "\n";
    }
    os << "  ],\n";
    os << "  \"service\": {\n";
    os << "    \"workers\": " << service.workers << ",\n";
    os << "    \"shards\": " << service.shards << ",\n";
    os << "    \"spool_bytes\": " << service.spoolBytes << ",\n";
    os << "    \"wall_s_inprocess\": " << service.inprocessSeconds
       << ",\n";
    os << "    \"wall_s_sharded\": " << service.shardedSeconds
       << ",\n";
    os << "    \"wall_s_resume_scan\": "
       << service.resumeScanSeconds << ",\n";
    os << "    \"overhead_ratio\": " << service.overheadRatio()
       << "\n";
    os << "  }\n";
    os << "}\n";
}

/** The fig11b-shaped wave (8 Vcc points on one trace) the service
 *  probe times. */
std::vector<sim::SimConfig>
sweepConfigs(uint64_t insts, uint64_t warmup,
             const std::string &tracePath)
{
    std::vector<sim::SimConfig> cfgs;
    for (double vcc :
         {400.0, 425.0, 450.0, 475.0, 500.0, 525.0, 550.0, 575.0}) {
        sim::SimConfig cfg;
        cfg.workload = "spec2006int";
        cfg.tracePath = tracePath;
        cfg.instructions = insts;
        cfg.warmupInstructions = warmup;
        cfg.vcc = vcc;
        cfg.mode = mechanism::IrawMode::Auto;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

int
runMicroPipelineTick(sim::ScenarioContext &ctx)
{
    const bool quick = ctx.opts().getBool("quick", false);
    const uint64_t insts =
        ctx.opts().getUint("insts", quick ? 60000 : 300000);
    const uint64_t warmup = ctx.opts().getUint("warmup", 20000);
    const std::string outPath = ctx.opts().getString(
        "benchout", "BENCH_pipeline.json");

    // Representative operating points: the conventional machine at
    // nominal Vcc, and the IRAW machine at the paper's low-voltage
    // points (N > 0 exercises the gate/guard/STable paths).
    const std::vector<BenchPoint> points = {
        {"base_600mV", "spec2006int", 600.0,
         mechanism::IrawMode::ForcedOff},
        {"iraw_500mV", "spec2006int", 500.0,
         mechanism::IrawMode::Auto},
        {"iraw_400mV", "multimedia", 400.0,
         mechanism::IrawMode::Auto},
    };

    const sim::Simulator &sim = ctx.simulator();
    std::vector<sim::SimResult> results;
    results.reserve(points.size());
    for (const BenchPoint &pt : points) {
        sim::SimConfig cfg;
        cfg.workload = pt.workload;
        cfg.tracePath = ctx.settings().tracePath;
        cfg.instructions = insts;
        cfg.warmupInstructions = warmup;
        cfg.vcc = pt.vcc;
        cfg.mode = pt.mode;
        // One untimed pass warms the trace store and allocator.
        sim.run(cfg);
        // Throughput is measured without the per-stage timers (two
        // clock-read pairs per cycle distort Minsts/s); a separate
        // profiled run contributes the stage breakdown.
        sim::SimResult timed = sim.run(cfg);
        cfg.profile = true;
        sim::SimResult profiled = sim.run(cfg);
        timed.host.stages = profiled.host.stages;
        results.push_back(timed);
    }

    TextTable table("Pipeline tick microbench (" +
                    std::to_string(insts) + " insts + " +
                    std::to_string(warmup) + " warmup per run)");
    table.setHeader({"point", "IPC", "cycles", "wall ms",
                     "Minsts/s", "issue%", "fetch%"});
    for (size_t i = 0; i < results.size(); ++i) {
        const sim::SimResult &r = results[i];
        const double totalNs =
            static_cast<double>(r.host.stages.totalNs());
        auto pct = [&](StageProfiler::Stage s) {
            return totalNs > 0.0
                       ? 100.0 * r.host.stages.stage(s).ns / totalNs
                       : 0.0;
        };
        table.addRow({
            points[i].name,
            TextTable::num(r.ipc, 3),
            std::to_string(r.pipeline.cycles),
            TextTable::num(r.host.wallSeconds * 1e3, 1),
            TextTable::num(r.host.minstsPerSecond(), 2),
            TextTable::num(pct(StageProfiler::Stage::Issue), 1),
            TextTable::num(pct(StageProfiler::Stage::Fetch), 1),
        });
    }
    table.addNote("machine-readable copy: " + outPath);
    table.addNote("simulated columns are deterministic; wall-clock "
                  "columns vary by host");
    table.print(ctx.out());

    // Supervisor wall overhead vs the in-process pool on the same
    // wave (ROADMAP item 5: record what fork/spool/merge costs).
    sim::ServiceOverheadResult service = sim::probeServiceOverhead(
        sim, sweepConfigs(insts, warmup, ctx.settings().tracePath),
        4, 2);
    TextTable st("Sharded service overhead (same wave, 2 workers)");
    st.setHeader({"variant", "wall ms"});
    st.addRow({"in-process pool",
               TextTable::num(service.inprocessSeconds * 1e3, 1)});
    st.addRow({"sharded service",
               TextTable::num(service.shardedSeconds * 1e3, 1)});
    st.addRow({"resume scan",
               TextTable::num(service.resumeScanSeconds * 1e3, 1)});
    st.addNote("overhead " +
               TextTable::num(service.overheadRatio(), 2) + "x, " +
               std::to_string(service.spoolBytes) +
               " spool bytes; sharded results verified identical");
    st.print(ctx.out());

    writeJson(outPath, insts, warmup, points, results, service);
    return 0;
}

} // namespace

IRAW_SCENARIO("micro_pipeline_tick",
              "Cycle-loop throughput bench: Minsts/s per operating "
              "point with per-stage profile, emits "
              "BENCH_pipeline.json",
              runMicroPipelineTick);
