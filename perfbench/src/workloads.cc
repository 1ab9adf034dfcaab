#include "workloads.hh"

#include <cstdio>
#include <memory>
#include <sstream>

#include "circuit/voltage.hh"
#include "common/logging.hh"
#include "sim/adapt_analysis.hh"
#include "sim/scenario.hh"
#include "sim/stats_report.hh"
#include "sim/yield_analysis.hh"
#include "spans.hh"
#include "trace/workload.hh"
#include "variation/chip_sample.hh"
#include "variation/population.hh"
#include "variation/variation_model.hh"

namespace perfbench {

using namespace iraw;
using namespace iraw::sim;

namespace {

/** Exact (hexadecimal) rendering of a double. */
std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

void
renderMachine(std::ostream &os, const MachineAtVcc &m)
{
    os << hex(m.vcc) << ' ' << m.irawEnabled << ' '
       << m.stabilizationCycles << ' ' << hex(m.cycleTimeAu) << ' '
       << m.instructions << ' ' << m.cycles << ' '
       << hex(m.execTimeAu) << ' ' << hex(m.ipc) << ' '
       << m.rfIrawStalls << ' ' << m.iqGateStalls << ' '
       << m.dl0IrawStalls << ' ' << m.otherIrawStalls << ' '
       << m.rfIrawDelayedInsts << '\n';
}

void
renderAggregate(std::ostream &os, const AdaptAggregate &a)
{
    os << a.runs << ' ' << a.instructions << ' ' << a.cycles << ' '
       << hex(a.execTimeAu) << ' ' << a.totalInstructions << ' '
       << hex(a.totalExecTimeAu) << ' ' << hex(a.energy.dynamic)
       << ' ' << hex(a.energy.leakage) << ' ' << a.switches << ' '
       << a.epochs << ' ' << a.settleCycles << ' ' << a.drainCycles
       << ' ' << a.capViolationEpochs << ' '
       << a.capSteadyViolationEpochs << ' '
       << hex(a.capCleanEnergyAu) << ' ' << a.exploreEpochs << ' '
       << a.phaseRestarts << ' ' << hex(a.timeWeightedVcc) << ' '
       << hex(a.minVcc) << '\n';
}

/** Instructions a set of runs represents, warm-up included. */
uint64_t
represented(const std::vector<SimResult> &results)
{
    uint64_t n = 0;
    for (const SimResult &r : results)
        n += r.pipeline.committedInsts + r.config.warmupInstructions;
    return n;
}

uint64_t
represented(const MachineAtVcc &m, size_t suiteSize)
{
    return m.instructions + suiteSize * kWarmup;
}

/** Candidate ordering of runPowercapStudy's offline oracle. */
bool
oracleBetter(bool feasible, const AdaptAggregate &agg,
             bool bestFeasible, const AdaptAggregate &best)
{
    if (feasible != bestFeasible)
        return feasible;
    if (feasible) {
        if (agg.performance() != best.performance())
            return agg.performance() > best.performance();
        return agg.power() < best.power();
    }
    return agg.power() < best.power();
}

WorkloadOutput
runVccSweep(const std::vector<SuiteEntry> &suite, const Simulator &sim,
            const RunnerConfig &runnerCfg, SpanLog *log)
{
    WorkloadOutput out;
    SweepConfig cfg;
    cfg.suite = suite;
    cfg.warmupInstructions = kWarmup;
    std::vector<MachinePoint> points;
    for (circuit::MilliVolts v : circuit::standardSweep()) {
        points.push_back({v, mechanism::IrawMode::ForcedOff});
        points.push_back({v, mechanism::IrawMode::Auto});
    }

    std::vector<MachineAtVcc> machines;
    {
        Scope span(log, "sim.runner.runMachines");
        machines = SweepRunner(sim, runnerCfg).runMachines(cfg, points);
    }
    for (const MachineAtVcc &m : machines)
        out.representedInsts += represented(m, suite.size());
    out.report = renderMachines(machines);

    // Traced runs only: every point over the suite, before the
    // runner's dedup (which the runner's own counters report).
    if (log) {
        std::vector<SimConfig> wave;
        for (const MachinePoint &p : points) {
            for (const SuiteEntry &entry : suite) {
                SimConfig sc;
                sc.workload = entry.workload;
                sc.seed = entry.seed;
                sc.instructions = entry.instructions;
                sc.warmupInstructions = kWarmup;
                sc.vcc = p.vcc;
                sc.mode = p.mode;
                wave.push_back(sc);
            }
        }
        out.waves.push_back(std::move(wave));
    }
    return out;
}

WorkloadOutput
runChipPopulation(uint64_t seed, const std::vector<SuiteEntry> &suite,
                  const Simulator &sim, const RunnerConfig &runnerCfg,
                  SpanLog *log)
{
    WorkloadOutput out;
    // The vccmin_cdf scenario's population options, parsed by the
    // library so the defaults (sigma, syssigma, gamma, grid) match.
    const std::string seedArg =
        "chipseed=" + std::to_string(chipSeed(seed));
    const char *argv[] = {"perfbench", seedArg.c_str()};
    const OptionMap opts = OptionMap::parse(2, argv);
    std::ostringstream sink;
    ScenarioContext ctx(opts, sink, sim.traceStore());
    variation::PopulationConfig cfg = parsePopulationConfig(
        ctx, 32, variation::SimulateMode::AtVccmin);
    cfg.suite = suite;
    cfg.warmupInstructions = kWarmup;

    variation::PopulationResult result;
    {
        Scope span(log, "variation.population");
        result = variation::ChipPopulation(sim, runnerCfg).run(cfg);
    }
    for (const variation::ChipSummary &chip : result.chips)
        if (chip.yields)
            out.representedInsts += represented(
                chip.points[chip.vccminIndex].machine, suite.size());
    out.report = renderPopulation(result);
    if (!log)
        return out;

    // Traced runs only: every yielding chip over the suite at its own
    // Vccmin, its sample re-drawn from the population seed.
    variation::VariationModel model(cfg.params);
    const variation::ChipGeometry geometry =
        variation::ChipGeometry::from(cfg.core, cfg.mem);
    std::vector<SimConfig> wave;
    for (const variation::ChipSummary &chip : result.chips) {
        if (!chip.yields)
            continue;
        auto sample = std::make_shared<const variation::ChipSample>(
            variation::ChipSample::sample(model, cfg.populationSeed,
                                          chip.chipIndex, geometry));
        for (const SuiteEntry &entry : suite) {
            SimConfig sc;
            sc.core = cfg.core;
            sc.mem = cfg.mem;
            sc.workload = entry.workload;
            sc.seed = entry.seed;
            sc.instructions = entry.instructions;
            sc.warmupInstructions = kWarmup;
            sc.vcc = chip.vccmin;
            sc.mode = cfg.mode;
            sc.chip = sample;
            wave.push_back(sc);
        }
    }
    out.waves.push_back(std::move(wave));
    return out;
}

} // namespace

WorkloadId
workloadByName(const std::string &name)
{
    if (name == "vcc_sweep")
        return WorkloadId::VccSweep;
    if (name == "powercap_adapt")
        return WorkloadId::PowercapAdapt;
    if (name == "chip_population")
        return WorkloadId::ChipPopulation;
    fatal("unknown workload '%s' (vcc_sweep, powercap_adapt, "
          "chip_population)",
          name.c_str());
}

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::VccSweep:
        return "vcc_sweep";
      case WorkloadId::PowercapAdapt:
        return "powercap_adapt";
      default:
        return "chip_population";
    }
}

unsigned
workloadThreads(WorkloadId id)
{
    return id == WorkloadId::ChipPopulation ? 2 : 1;
}

uint64_t
suiteSeed(uint64_t seed)
{
    // The suite seeds in 1..40 whose vcc_sweep and powercap_adapt
    // simulate within 3% of the cycles of suite seed 1, so host time
    // compares across seeds (the full range spans 14.0-20.9 M
    // vcc_sweep cycles).  None of them is 12, 14 or 24, which trip
    // the memory model's "fill buffer fb: allocate() with no free
    // entry" panic at some Vcc points (spec2006int seed 12 at
    // 500-525 mV, workstation seed 14 at 575-625 mV).
    static constexpr uint64_t kSeeds[] = {1,  3,  5,  6,  10, 11, 13,
                                          18, 23, 29, 30, 31, 36};
    constexpr uint64_t n = sizeof(kSeeds) / sizeof(kSeeds[0]);
    return kSeeds[(seed % n + n - 1) % n];
}

uint64_t
chipSeed(uint64_t seed)
{
    // Every population seed in 1..40 runs cleanly and simulates
    // within 1% of the others' cycles.
    return (seed % 40 + 39) % 40 + 1;
}

std::vector<SuiteEntry>
workloadSuite(WorkloadId id, uint64_t seed)
{
    std::vector<SuiteEntry> suite = defaultSuite(kInstructions, 1);
    if (id != WorkloadId::ChipPopulation)
        for (SuiteEntry &entry : suite)
            entry.seed = suiteSeed(seed);
    return suite;
}

Prepared
prepare(WorkloadId id, uint64_t seed, SpanLog *log)
{
    Prepared p;
    {
        Scope span(log, "sim.construct");
        p.sim = std::make_unique<Simulator>();
        p.sim->setTraceStore(std::make_shared<trace::TraceStore>());
    }
    const core::CoreConfig core;
    for (const SuiteEntry &entry : workloadSuite(id, seed)) {
        trace::TraceBufferPtr buffer;
        {
            Scope span(log, "trace.materialize");
            buffer = p.sim->traceStore()->acquireSynthetic(
                trace::profileByName(entry.workload), entry.seed,
                trace::replayLength(kWarmup + entry.instructions,
                                    core.iqEntries));
        }
        {
            Scope span(log, "trace.decode");
            buffer->ops();
        }
        p.buffers.push_back(std::move(buffer));
    }
    return p;
}

PowercapStudy
powercapStudy(const Simulator &sim, const RunnerConfig &runnerCfg,
              const std::vector<SuiteEntry> &suite, SpanLog *log,
              WorkloadOutput *out)
{
    const SweepRunner runner(sim, runnerCfg);
    auto runWave = [&](const char *name,
                       const std::vector<SimConfig> &configs) {
        std::vector<SimResult> results;
        {
            Scope span(log, name);
            results = runner.runConfigs(configs);
        }
        if (out) {
            out->representedInsts += represented(results);
            if (log)
                out->waves.push_back(configs);
        }
        return results;
    };

    ScenarioSettings settings;
    settings.suite = suite;
    settings.warmup = kWarmup;
    PowercapStudy study;
    study.provisionVcc = 550.0;
    const double capFrac = 0.9;

    // calibrateRefTimePerInst: the baseline machine at 600 mV.
    const MachineAtVcc ref = SweepRunner::merge(
        600.0, runWave("sim.runner.calibrate",
                       adaptConfigsOverSuite(
                           settings, 600.0,
                           mechanism::IrawMode::ForcedOff, nullptr)));
    fatalIf(ref.instructions == 0,
            "adapt calibration run committed nothing");

    adapt::AdaptConfig base;
    base.policy = adapt::Policy::Static;
    base.refTimePerInst =
        ref.execTimeAu / static_cast<double>(ref.instructions);
    base.epochCycles = 2000;
    base.switchCycles = 500;
    base.validate();

    // Wave A: the uncapped static machine fixes the budget.
    {
        adapt::AdaptConfig acfg = base;
        acfg.capPowerAu = 0.0;
        auto shared = std::make_shared<adapt::AdaptConfig>(acfg);
        study.uncappedStaticPowerAu =
            aggregateAdapt(runWave("sim.runner.uncapped",
                                   adaptConfigsOverSuite(
                                       settings, study.provisionVcc,
                                       mechanism::IrawMode::Auto,
                                       shared)))
                .power();
    }
    study.capPowerAu = capFrac * study.uncappedStaticPowerAu;

    const std::vector<adapt::Policy> policies = {
        adapt::Policy::Static, adapt::Policy::Reactive,
        adapt::Policy::Explore, adapt::Policy::ExploreGlobal};
    const std::vector<adapt::ExploreConfig> space =
        adapt::exploreSpace(sim.cycleTimeModel(), base,
                            mechanism::IrawMode::Auto,
                            study.provisionVcc, core::CoreConfig(),
                            nullptr);
    study.oracle.candidates = space.size();

    // Wave B: the runtime policies, then one Static hold per oracle
    // candidate.
    std::vector<SimConfig> wave;
    for (adapt::Policy policy : policies) {
        adapt::AdaptConfig acfg = base;
        acfg.policy = policy;
        acfg.capPowerAu = study.capPowerAu;
        auto shared = std::make_shared<adapt::AdaptConfig>(acfg);
        std::vector<SimConfig> configs = adaptConfigsOverSuite(
            settings, study.provisionVcc, mechanism::IrawMode::Auto,
            shared);
        wave.insert(wave.end(), configs.begin(), configs.end());
    }
    for (const adapt::ExploreConfig &cand : space) {
        adapt::AdaptConfig acfg = base;
        acfg.capPowerAu = study.capPowerAu;
        acfg.resolvedFloorVcc = cand.vcc;
        auto shared = std::make_shared<adapt::AdaptConfig>(acfg);
        std::vector<SimConfig> configs = adaptConfigsOverSuite(
            settings, cand.vcc, cand.mode, shared);
        for (SimConfig &cfg : configs)
            cfg.issueThrottle = cand.issueThrottle;
        wave.insert(wave.end(), configs.begin(), configs.end());
    }
    const std::vector<SimResult> results =
        runWave("sim.runner.capped", wave);

    size_t offset = 0;
    auto nextGroup = [&]() {
        std::vector<SimResult> group(
            results.begin() + static_cast<std::ptrdiff_t>(offset),
            results.begin() +
                static_cast<std::ptrdiff_t>(offset + suite.size()));
        offset += suite.size();
        return aggregateAdapt(group);
    };
    for (adapt::Policy policy : policies)
        study.rows.push_back({policy, nextGroup()});
    bool haveBest = false;
    for (const adapt::ExploreConfig &cand : space) {
        AdaptAggregate agg = nextGroup();
        const bool feasible = agg.capViolationEpochs == 0;
        if (!haveBest || oracleBetter(feasible, agg,
                                      study.oracle.feasible,
                                      study.oracle.agg)) {
            study.oracle.config = cand;
            study.oracle.feasible = feasible;
            study.oracle.agg = agg;
            haveBest = true;
        }
    }
    fatalIf(!haveBest, "powercap oracle space is empty");
    return study;
}

std::string
renderMachines(const std::vector<MachineAtVcc> &machines)
{
    std::ostringstream os;
    for (const MachineAtVcc &m : machines)
        renderMachine(os, m);
    return os.str();
}

std::string
renderPopulation(const variation::PopulationResult &result)
{
    std::ostringstream os;
    writeVccminCdf(os, result);
    writeVariationReport(os, result);
    for (const variation::ChipSummary &chip : result.chips)
        if (chip.yields)
            renderMachine(os, chip.points[chip.vccminIndex].machine);
    return os.str();
}

std::string
renderPowercap(const PowercapStudy &study)
{
    std::ostringstream os;
    os << hex(study.provisionVcc) << ' ' << hex(study.capPowerAu)
       << ' ' << hex(study.uncappedStaticPowerAu) << '\n';
    for (const PowercapRow &row : study.rows) {
        os << adapt::policyName(row.policy) << ' ';
        renderAggregate(os, row.agg);
    }
    os << "oracle " << hex(study.oracle.config.vcc) << ' '
       << static_cast<int>(study.oracle.config.mode) << ' '
       << study.oracle.config.issueThrottle << ' '
       << study.oracle.feasible << ' ' << study.oracle.candidates
       << ' ';
    renderAggregate(os, study.oracle.agg);
    return os.str();
}

namespace {

const AdaptAggregate &
exploreRow(const PowercapStudy &study)
{
    for (const PowercapRow &row : study.rows)
        if (row.policy == adapt::Policy::Explore)
            return row.agg;
    fatal("powercap study has no explore row");
}

} // namespace

double
oracleGapPct(const PowercapStudy &study)
{
    return 100.0 * (exploreRow(study).energy.total() /
                        study.oracle.agg.energy.total() -
                    1.0);
}

uint64_t
capSteadyViolations(const PowercapStudy &study)
{
    return exploreRow(study).capSteadyViolationEpochs;
}

WorkloadOutput
runWorkload(WorkloadId id, uint64_t seed, const Simulator &sim,
            const RunnerConfig &runner, SpanLog *log)
{
    const std::vector<SuiteEntry> suite = workloadSuite(id, seed);
    switch (id) {
      case WorkloadId::VccSweep:
        return runVccSweep(suite, sim, runner, log);
      case WorkloadId::PowercapAdapt: {
        WorkloadOutput out;
        out.report = renderPowercap(
            powercapStudy(sim, runner, suite, log, &out));
        return out;
      }
      default:
        return runChipPopulation(seed, suite, sim, runner, log);
    }
}

std::string
digest(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
