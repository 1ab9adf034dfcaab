/**
 * @file
 * perfbench: the benchmark's measuring binary.  perfbench/run.py
 * drives it; every mode prints one JSON object on stdout.
 *
 *   perfbench run workload=W seed=N threads=T
 *       one timed execution: set-up and wall seconds, represented
 *       instructions, output digest, peak RSS
 *   perfbench gate golden=DIR
 *       the quick-size scenarios against the committed goldens, and
 *       the benchmark's powercap study copy against the library's
 *   perfbench accuracy
 *       deterministic accuracy metrics on the reference suite
 *   perfbench reference
 *       library-scenario digests of the three workloads at seed 1
 *   perfbench layers workload=W seed=N chrometrace=FILE workdir=DIR
 *       the traced run (per-layer metrics)
 *   perfbench manifest path=FILE
 *       the telemetry manifest (host/build provenance)
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "circuit/voltage.hh"
#include "common/logging.hh"
#include "layers.hh"
#include "obs/telemetry.hh"
#include "sim/powercap_analysis.hh"
#include "sim/scenario.hh"
#include "sim/yield_analysis.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace iraw;
using namespace iraw::sim;
using namespace perfbench;

/** Process start, as close to exec as a static initializer gets. */
const uint64_t kStartNs = nowNs();

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

OptionMap
options(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"perfbench"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return OptionMap::parse(static_cast<int>(argv.size()), argv.data());
}

int
modeRun(const OptionMap &opts)
{
    const WorkloadId id =
        workloadByName(opts.getString("workload", ""));
    const uint64_t seed = opts.getUint("seed", 1);
    const uint64_t threads =
        opts.getUint("threads", workloadThreads(id));
    fatalIf(threads < 1 || threads > 2, "threads=%llu not in [1, 2]",
            static_cast<unsigned long long>(threads));

    Prepared prep = prepare(id, seed, nullptr);
    const double setupS = static_cast<double>(nowNs() - kStartNs) * 1e-9;
    WorkloadOutput out = runWorkload(
        id, seed, *prep.sim,
        RunnerConfig(static_cast<unsigned>(threads), kBatch), nullptr);
    const double wallS = static_cast<double>(nowNs() - kStartNs) * 1e-9;

    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"workload\": \"" << workloadName(id)
              << "\", \"seed\": " << seed
              << ", \"threads\": " << threads
              << ", \"setup_s\": " << num(setupS)
              << ", \"wall_s\": " << num(wallS)
              << ", \"represented_insts\": " << out.representedInsts
              << ", \"digest\": \"" << digest(out.report)
              << "\", \"cpu_s\": "
              << num(static_cast<double>(ru.ru_utime.tv_sec +
                                         ru.ru_stime.tv_sec) +
                     1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                ru.ru_stime.tv_usec))
              << ", \"peak_rss_mb\": "
              << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
              << "}\n";
    return 0;
}

/** One scenario invocation, its stdout captured. */
std::string
scenarioOutput(const std::string &name,
               const std::vector<std::string> &args)
{
    const Scenario *s = ScenarioRegistry::instance().find(name);
    fatalIf(!s, "scenario '%s' is not linked", name.c_str());
    const OptionMap opts = options(args);
    std::ostringstream os;
    ScenarioContext ctx(opts, os);
    fatalIf(s->fn(ctx) != 0, "scenario '%s' failed", name.c_str());
    return os.str();
}

int
modeGate(const OptionMap &opts)
{
    const std::string dir = opts.getString("golden", "tests/golden");
    struct Golden
    {
        const char *file;
        const char *scenario;
        const char *arg;
    };
    const Golden goldens[] = {
        {"fig11b_quick", "fig11b_speedup", "quick=1"},
        {"adapt_powercap_quick", "adapt_powercap", "quick=1"},
        {"vccmin_cdf_chips2", "vccmin_cdf", "chips=2"},
    };
    std::cout << '{';
    bool first = true;
    for (const Golden &g : goldens) {
        std::ifstream in(dir + "/" + g.file + ".txt",
                         std::ios::binary);
        std::ostringstream expected;
        expected << in.rdbuf();
        const bool match =
            in && scenarioOutput(g.scenario, {g.arg, "threads=2"}) ==
                      expected.str();
        std::cout << (first ? "" : ", ") << '"' << g.file
                  << "\": " << (match ? "true" : "false");
        first = false;
    }

    // The powercap_adapt workload times the benchmark's copy of the
    // library study; it must still render what the library does.
    const OptionMap quick = options({"quick=1", "threads=2"});
    std::ostringstream sink;
    ScenarioContext ctx(quick, sink);
    const std::string library = renderPowercap(runPowercapStudy(ctx));
    const std::string copy = renderPowercap(
        powercapStudy(ctx.simulator(), RunnerConfig(2, kBatch),
                      ctx.settings().suite, nullptr, nullptr));
    std::cout << ", \"powercap_study_copy\": "
              << (library == copy ? "true" : "false") << "}\n";
    return 0;
}

int
modeAccuracy()
{
    const OptionMap opts = options({"threads=2"});
    std::ostringstream sink;
    ScenarioContext ctx(opts, sink);

    // Figure 11(b) anchors: +48% at 500 mV, +90% at 400 mV.
    const std::vector<MachineAtVcc> m = ctx.runMachines(
        {{500.0, mechanism::IrawMode::ForcedOff},
         {500.0, mechanism::IrawMode::Auto},
         {400.0, mechanism::IrawMode::ForcedOff},
         {400.0, mechanism::IrawMode::Auto}});
    const double gain500 =
        100.0 * (m[1].performance() / m[0].performance() - 1.0);
    const double gain400 =
        100.0 * (m[3].performance() / m[2].performance() - 1.0);
    const double errPp =
        0.5 * (std::fabs(gain500 - 48.0) + std::fabs(gain400 - 90.0));

    const PowercapStudy study = runPowercapStudy(ctx);
    std::cout << "{\"paper_speedup_err_pp\": " << num(errPp)
              << ", \"perf_gain_500mv_pct\": " << num(gain500)
              << ", \"perf_gain_400mv_pct\": " << num(gain400)
              << ", \"oracle_gap_pct\": " << num(oracleGapPct(study))
              << ", \"cap_steady_violations\": "
              << capSteadyViolations(study) << "}\n";
    return 0;
}

int
modeReference()
{
    // The library's own scenario paths at the reference seed, for the
    // self-test that the benchmark's workloads are the scenarios.
    const OptionMap opts = options({"threads=2"});
    std::ostringstream sink;
    ScenarioContext ctx(opts, sink);
    std::vector<MachinePoint> points;
    for (circuit::MilliVolts v : circuit::standardSweep()) {
        points.push_back({v, mechanism::IrawMode::ForcedOff});
        points.push_back({v, mechanism::IrawMode::Auto});
    }
    const std::string sweep =
        renderMachines(ctx.runMachines(points));
    const std::string powercap =
        renderPowercap(runPowercapStudy(ctx));
    const std::string population = renderPopulation(runPopulation(
        ctx, parsePopulationConfig(ctx, 32,
                                   variation::SimulateMode::AtVccmin)));
    std::cout << "{\"vcc_sweep\": \"" << digest(sweep)
              << "\", \"powercap_adapt\": \"" << digest(powercap)
              << "\", \"chip_population\": \"" << digest(population)
              << "\"}\n";
    return 0;
}

int
modeManifest(const OptionMap &opts)
{
    obs::TelemetryConfig cfg;
    cfg.manifestPath = opts.getString("path", "");
    fatalIf(cfg.manifestPath.empty(), "manifest needs path=");
    obs::TelemetrySession session(cfg);
    fatalIf(!session.writeManifest(), "cannot write '%s'",
            cfg.manifestPath.c_str());
    std::cout << "{\"manifest\": \"" << cfg.manifestPath << "\"}\n";
    return 0;
}

int
dispatch(int argc, char **argv)
{
    fatalIf(argc < 2,
            "usage: perfbench run|gate|accuracy|reference|layers|"
            "manifest [key=value ...]");
    const std::string mode = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    const OptionMap opts = options(args);
    if (mode == "run")
        return modeRun(opts);
    if (mode == "gate")
        return modeGate(opts);
    if (mode == "accuracy")
        return modeAccuracy();
    if (mode == "reference")
        return modeReference();
    if (mode == "manifest")
        return modeManifest(opts);
    if (mode == "layers")
        return runLayers(workloadByName(opts.getString("workload", "")),
                         opts.getUint("seed", 1),
                         opts.getString("chrometrace", "trace.json"),
                         opts.getString("workdir", "."), std::cout);
    fatal("unknown mode '%s'", mode.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return dispatch(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
