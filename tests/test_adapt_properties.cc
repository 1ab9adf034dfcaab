/**
 * @file
 * Property tests for every adaptation policy: seeded-random
 * configuration draws asserting, for each of the five policies,
 * that (a) segment cycles/instructions/energy sum exactly to the
 * run totals, (b) the applied voltage never dips below the resolved
 * operability floor, (c) an explore run whose cap exceeds the
 * analytic worst-case power never reports a violation, and (d)
 * every run is bitwise repeat-stable and thread-count independent.
 * Plus directed unit tests of the explore state machine: search
 * space shape, infeasible fallback, cap-violation demotion and
 * phase-change restart via synthetic telemetry.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "adapt/power_model.hh"
#include "adapt/vcc_controller.hh"
#include "sim/adapt_analysis.hh"
#include "sim/powercap_analysis.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "sim/stats_report.hh"

namespace iraw {
namespace {

using adapt::AdaptConfig;
using adapt::Policy;
using sim::SimConfig;
using sim::SimResult;
using sim::Simulator;

const Policy kAllPolicies[] = {
    Policy::Static, Policy::Oracle, Policy::Reactive,
    Policy::Explore, Policy::ExploreGlobal,
};

std::string
statsOf(const SimResult &result)
{
    std::ostringstream os;
    sim::writeStatsReport(os, result);
    return os.str();
}

/**
 * One seeded draw of a run configuration: the workload, sizes,
 * epoch geometry and cap vary per draw; every quantity the draw
 * produces is a pure function of @p rng.
 */
SimConfig
drawConfig(std::mt19937_64 &rng, Policy policy)
{
    const char *workloads[] = {"spec2006int", "spec2006fp",
                               "kernels", "server"};
    SimConfig cfg;
    cfg.workload = workloads[rng() % 4];
    cfg.seed = 1 + rng() % 64;
    cfg.instructions = 4000 + rng() % 6000;
    cfg.warmupInstructions = 500 + rng() % 1500;
    // Grid points 700..500 mV: room below to adapt into.
    cfg.vcc = 700.0 - 25.0 * static_cast<double>(rng() % 9);
    auto acfg = std::make_shared<AdaptConfig>();
    acfg->policy = policy;
    acfg->epochCycles = 500 + rng() % 2500;
    acfg->switchCycles = static_cast<uint32_t>(rng() % 800);
    acfg->switchEnergyAu = 0.25 * static_cast<double>(rng() % 40);
    acfg->stepDownThreshold = 0.05 + 0.001 * (rng() % 100);
    acfg->stepUpThreshold =
        acfg->stepDownThreshold + 0.05 + 0.001 * (rng() % 100);
    acfg->modeVariants = 1 + rng() % 2;
    acfg->throttleVariants = 1 + rng() % 2;
    acfg->hysteresisEpochs = 1 + rng() % 4;
    if (rng() % 2) {
        // A binding-ish cap: between deep-throttle and full power.
        acfg->capPowerAu = 0.05 + 0.01 * (rng() % 100);
    }
    cfg.adapt = acfg;
    return cfg;
}

class AdaptPropertyTest : public ::testing::Test
{
  protected:
    Simulator _sim;
};

TEST_F(AdaptPropertyTest, SegmentsSumExactlyToRunTotals)
{
    std::mt19937_64 rng(0xfeedu);
    for (Policy policy : kAllPolicies) {
        for (int draw = 0; draw < 3; ++draw) {
            SimConfig cfg = drawConfig(rng, policy);
            SimResult res = _sim.run(cfg);
            const adapt::AdaptInfo &a = res.adapt;
            SCOPED_TRACE(std::string(adapt::policyName(policy)) +
                         " draw " + std::to_string(draw));

            uint64_t cycles = 0, insts = 0, settle = 0;
            double exec = 0.0;
            circuit::EnergyBreakdown energy;
            circuit::EnergyModel em(cfg.adapt->refTimePerInst);
            for (const adapt::AdaptSegment &seg : a.segments) {
                cycles += seg.cycles;
                insts += seg.instructions;
                settle += seg.settleCycles;
                exec += seg.execTimeAu();
                circuit::EnergyBreakdown e = em.taskEnergy(
                    seg.vcc, seg.instructions, seg.execTimeAu(),
                    seg.irawOn ? cfg.adapt->irawDynOverhead : 0.0);
                energy.dynamic += e.dynamic;
                energy.leakage += e.leakage;
            }
            EXPECT_EQ(cycles, a.totalCycles);
            EXPECT_EQ(insts, a.totalInstructions);
            EXPECT_EQ(settle, a.settleCycles);
            EXPECT_EQ(exec, a.execTimeAu);
            EXPECT_EQ(a.switchEnergyAu,
                      a.switches * cfg.adapt->switchEnergyAu);
            EXPECT_EQ(a.energy.dynamic,
                      energy.dynamic + a.switchEnergyAu);
            EXPECT_EQ(a.energy.leakage, energy.leakage);
        }
    }
}

TEST_F(AdaptPropertyTest, AppliedVccNeverDipsBelowTheFloor)
{
    std::mt19937_64 rng(0xbeefu);
    for (Policy policy : kAllPolicies) {
        for (int draw = 0; draw < 3; ++draw) {
            SimConfig cfg = drawConfig(rng, policy);
            SimResult res = _sim.run(cfg);
            const adapt::AdaptInfo &a = res.adapt;
            ASSERT_GT(a.floorVcc, 0.0);
            EXPECT_GE(a.minVcc, a.floorVcc)
                << adapt::policyName(policy) << " draw " << draw;
            for (const adapt::AdaptSegment &seg : a.segments)
                EXPECT_GE(seg.vcc, a.floorVcc)
                    << adapt::policyName(policy) << " draw "
                    << draw;
        }
    }
}

TEST_F(AdaptPropertyTest, GenerousCapNeverReportsViolations)
{
    // Property anchor: a cap above the analytic worst-case power
    // bound can never be violated, whatever the policy explores.
    std::mt19937_64 rng(0xcafeu);
    core::CoreConfig core;
    const double worst = adapt::PowerModel::worstCasePowerAu(
        _sim.cycleTimeModel(), 1.0, AdaptConfig{}.irawDynOverhead,
        core.issueWidth);
    ASSERT_GT(worst, 0.0);
    for (Policy policy :
         {Policy::Explore, Policy::ExploreGlobal}) {
        for (int draw = 0; draw < 3; ++draw) {
            SimConfig cfg = drawConfig(rng, policy);
            auto acfg = std::make_shared<AdaptConfig>(*cfg.adapt);
            acfg->capPowerAu = 2.0 * worst;
            cfg.adapt = acfg;
            SimResult res = _sim.run(cfg);
            EXPECT_EQ(res.adapt.cap.capViolationEpochs, 0u)
                << adapt::policyName(policy) << " draw " << draw;
            EXPECT_EQ(res.adapt.cap.capSteadyViolationEpochs, 0u)
                << adapt::policyName(policy) << " draw " << draw;
            EXPECT_GT(res.adapt.cap.capCleanEnergyAu, 0.0);
        }
    }
}

TEST_F(AdaptPropertyTest, RunsAreRepeatAndThreadCountStable)
{
    std::mt19937_64 rng(0xd00du);
    std::vector<SimConfig> configs;
    for (Policy policy : kAllPolicies)
        configs.push_back(drawConfig(rng, policy));

    // Bitwise repeat stability of the full report, run by run.
    for (const SimConfig &cfg : configs) {
        SimResult once = _sim.run(cfg);
        SimResult again = _sim.run(cfg);
        EXPECT_EQ(statsOf(once), statsOf(again));
    }

    // Thread-count independence over the parallel runner.
    sim::SweepRunner serial(_sim, sim::RunnerConfig{1});
    sim::SweepRunner parallel(_sim, sim::RunnerConfig{8});
    std::vector<SimResult> a = serial.runConfigs(configs);
    std::vector<SimResult> b = parallel.runConfigs(configs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(statsOf(a[i]), statsOf(b[i])) << "config " << i;
}

TEST(ExploreSpace, ShapeAndVisitOrder)
{
    Simulator sim;
    AdaptConfig cfg;
    cfg.policy = Policy::Explore;
    cfg.floorVcc = 500.0;
    core::CoreConfig core;
    std::vector<adapt::ExploreConfig> space = adapt::exploreSpace(
        sim.cycleTimeModel(), cfg, mechanism::IrawMode::Auto,
        550.0, core, nullptr);
    // 3 levels (550, 525, 500) x 2 throttles x 2 modes.
    ASSERT_EQ(space.size(), 12u);
    // Candidate 0 is the provisioned starting configuration.
    EXPECT_DOUBLE_EQ(space[0].vcc, 550.0);
    EXPECT_EQ(space[0].mode, mechanism::IrawMode::Auto);
    EXPECT_EQ(space[0].issueThrottle, 0u);
    EXPECT_EQ(space[0].level, 0u);
    // Levels descend monotonically and exhaust their variants
    // before the next level starts.
    for (size_t i = 1; i < space.size(); ++i) {
        EXPECT_GE(space[i - 1].level + 1, space[i].level);
        EXPECT_GE(space[i - 1].vcc, space[i].vcc);
    }
    EXPECT_DOUBLE_EQ(space.back().vcc, 500.0);

    // modes=1 throttles=1 collapses to a pure voltage ladder.
    cfg.modeVariants = 1;
    cfg.throttleVariants = 1;
    space = adapt::exploreSpace(sim.cycleTimeModel(), cfg,
                                mechanism::IrawMode::Auto, 550.0,
                                core, nullptr);
    ASSERT_EQ(space.size(), 3u);
    for (const adapt::ExploreConfig &cand : space) {
        EXPECT_EQ(cand.mode, mechanism::IrawMode::Auto);
        EXPECT_EQ(cand.issueThrottle, 0u);
    }
}

adapt::EpochTelemetry
telemetry(uint64_t cycles, uint64_t insts, uint64_t stalls = 0)
{
    adapt::EpochTelemetry t;
    t.cycles = cycles;
    t.instructions = insts;
    t.irawStallCycles = stalls;
    return t;
}

TEST(ExploreController, ImpossibleCapFallsBackToLowestPower)
{
    Simulator sim;
    AdaptConfig cfg;
    cfg.policy = Policy::ExploreGlobal;
    cfg.floorVcc = 500.0;
    cfg.capPowerAu = 1e-9; // nothing can fit this budget
    core::CoreConfig core;
    adapt::VccController ctl(sim.cycleTimeModel(), cfg,
                             mechanism::IrawMode::Auto, 550.0, core,
                             nullptr);
    const std::vector<adapt::ExploreConfig> &space =
        ctl.searchSpace();
    ASSERT_FALSE(space.empty());

    // Sweep the whole space with flat telemetry; every epoch
    // violates, so the controller must park on the lowest-power
    // measured candidate rather than a "best feasible" one.
    adapt::Decision last;
    for (size_t i = 0; i < space.size(); ++i)
        last = ctl.evaluate(telemetry(1000, 700));
    EXPECT_FALSE(ctl.exploring());
    EXPECT_EQ(ctl.capStats().capViolationEpochs, space.size());

    adapt::PowerModel power(sim.cycleTimeModel(),
                            cfg.refTimePerInst,
                            cfg.irawDynOverhead);
    double lowest = 0.0;
    bool first = true;
    for (const adapt::ExploreConfig &cand : space) {
        double p =
            power.windowPowerAu(cand.vcc, cand.mode, 1000, 700);
        if (first || p < lowest) {
            lowest = p;
            first = false;
        }
    }
    EXPECT_EQ(power.windowPowerAu(last.target, last.mode, 1000,
                                  700),
              lowest);
}

TEST(ExploreController, PhaseShiftRestartsAfterHysteresis)
{
    Simulator sim;
    AdaptConfig cfg;
    cfg.policy = Policy::ExploreGlobal;
    cfg.floorVcc = 525.0;
    cfg.modeVariants = 1;
    cfg.throttleVariants = 1;
    cfg.hysteresisEpochs = 3;
    core::CoreConfig core;
    adapt::VccController ctl(sim.cycleTimeModel(), cfg,
                             mechanism::IrawMode::Auto, 550.0, core,
                             nullptr);
    ASSERT_EQ(ctl.searchSpace().size(), 2u);

    // Measure both candidates, then park (uncapped: highest
    // performance wins — the faster clock at 550 mV).
    ctl.evaluate(telemetry(1000, 800));
    adapt::Decision parked = ctl.evaluate(telemetry(1000, 800));
    EXPECT_FALSE(ctl.exploring());
    EXPECT_DOUBLE_EQ(parked.target, 550.0);
    EXPECT_EQ(ctl.capStats().phaseRestarts, 0u);

    // Two out-of-band epochs then one in-band: hysteresis holds.
    ctl.evaluate(telemetry(1000, 200));
    ctl.evaluate(telemetry(1000, 200));
    adapt::Decision d = ctl.evaluate(telemetry(1000, 800));
    EXPECT_FALSE(d.switchVcc);
    EXPECT_FALSE(ctl.exploring());

    // A sustained IPC collapse restarts the search at candidate 0.
    ctl.evaluate(telemetry(1000, 200));
    ctl.evaluate(telemetry(1000, 200));
    d = ctl.evaluate(telemetry(1000, 200));
    EXPECT_TRUE(ctl.exploring());
    EXPECT_EQ(ctl.capStats().phaseRestarts, 1u);
    EXPECT_DOUBLE_EQ(d.target, ctl.searchSpace().front().vcc);
}

// ---------------------------------------------------------------
// Option-parsing fuzz: the cap=/power= and explore-family keys must
// reject every malformed spelling with an error naming the
// offending key — never crash, never accept silently.
// ---------------------------------------------------------------

/** Run parseAdaptConfig over argv-style options; returns the error
 *  text, or empty when parsing succeeded. */
std::string
adaptParseError(std::initializer_list<const char *> args,
                adapt::AdaptConfig *out = nullptr)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    OptionMap opts = OptionMap::parse(
        static_cast<int>(argv.size()), argv.data());
    std::ostringstream sink;
    sim::ScenarioContext ctx(opts, sink);
    try {
        adapt::AdaptConfig cfg =
            sim::parseAdaptConfig(ctx, Policy::Explore);
        if (out)
            *out = cfg;
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(AdaptOptionFuzz, CapEdgeValues)
{
    adapt::AdaptConfig cfg;
    // Legal edges: zero disables, subnormals are finite and >= 0.
    EXPECT_EQ(adaptParseError({"cap=0"}, &cfg), "");
    EXPECT_DOUBLE_EQ(cfg.capPowerAu, 0.0);
    EXPECT_EQ(adaptParseError({"cap=1e-320"}, &cfg), "");
    EXPECT_GT(cfg.capPowerAu, 0.0);
    EXPECT_EQ(adaptParseError({"power=0.25"}, &cfg), "");
    EXPECT_DOUBLE_EQ(cfg.capPowerAu, 0.25);
    // A huge budget is legal while its a.u. x1000 rendering is finite.
    EXPECT_EQ(adaptParseError({"cap=1e305"}, &cfg), "");
    EXPECT_DOUBLE_EQ(cfg.capPowerAu, 1e305);

    // Malformed values must name the key they arrived under.
    for (const char *bad : {"cap=-1", "cap=nan", "cap=inf", "cap=1e308"})
        EXPECT_NE(adaptParseError({bad}).find("cap"),
                  std::string::npos)
            << bad;
    for (const char *bad : {"power=-0.5", "power=inf", "power=1e308"})
        EXPECT_NE(adaptParseError({bad}).find("power"),
                  std::string::npos)
            << bad;
    // Overflow (1e999) is rejected by the typed accessor itself.
    EXPECT_NE(adaptParseError({"cap=1e999"}).find("cap"),
              std::string::npos);
    EXPECT_NE(adaptParseError({"cap=1.2x"}).find("cap"),
              std::string::npos);
    // Giving both spellings of the same budget is ambiguous.
    EXPECT_FALSE(
        adaptParseError({"cap=0.5", "power=0.5"}).empty());
}

TEST(AdaptOptionFuzz, MalformedExploreSpecsNameTheKey)
{
    struct Case
    {
        const char *arg;
        const char *key;
    };
    const Case cases[] = {
        {"modes=0", "modes"},       {"modes=3", "modes"},
        {"modes=-1", "modes"},      {"throttles=0", "throttles"},
        {"throttles=9", "throttles"}, {"hysteresis=0", "hysteresis"},
        {"hysteresis=abc", "hysteresis"},
        {"phaseipc=0", "phaseipc"}, {"phaseipc=-2", "phaseipc"},
        {"phasestall=0", "phasestall"},
        {"phasestall=nan", "phasestall"},
        {"epoch=0", "epoch"},
        {"switchenergy=nan", "switchenergy"},
        {"switchenergy=inf", "switchenergy"},
        {"down=nan", "down"},       {"up=nan", "up"},
    };
    for (const Case &c : cases) {
        std::string err = adaptParseError({c.arg});
        EXPECT_NE(err.find(c.key), std::string::npos)
            << c.arg << " -> " << err;
    }
    // And the policy selector itself names the bad spelling.
    try {
        adapt::policyByName("fastest");
        FAIL() << "policyByName accepted garbage";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fastest"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("explore"),
                  std::string::npos);
    }
}

/** The FatalError text @p run raises, or empty when it returns. */
template <typename Run>
std::string
fatalText(Run &&run)
{
    try {
        run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(AdaptOptionFuzz, OverflowingInputsNameTheKey)
{
    // capfrac= is a fraction of the uncapped power: past 1 its x1000
    // rendering can overflow.  The study rejects it before any run
    // (the quick sizes only bound a study that wrongly starts).
    for (const char *bad : {"capfrac=0", "capfrac=1.5", "capfrac=1e308"}) {
        const char *argv[] = {"prog", "quick=1", "insts=2000",
                              "warmup=1000", bad};
        OptionMap opts = OptionMap::parse(5, argv);
        std::ostringstream sink;
        sim::ScenarioContext ctx(opts, sink);
        const std::string err =
            fatalText([&ctx] { sim::runPowercapStudy(ctx); });
        EXPECT_NE(err.find("capfrac"), std::string::npos)
            << bad << " -> " << err;
    }

    // A finite switchenergy= whose run total overflows: a reactive
    // run that steps down every epoch makes four switches.
    Simulator sim;
    SimConfig cfg;
    cfg.vcc = 550.0;
    cfg.workload = "spec2006int";
    cfg.seed = 3;
    cfg.instructions = 20000;
    cfg.warmupInstructions = 2000;
    auto acfg = std::make_shared<AdaptConfig>();
    acfg->policy = Policy::Reactive;
    acfg->epochCycles = 1500;
    acfg->switchCycles = 500;
    acfg->switchEnergyAu = 1e308;
    acfg->floorVcc = 450.0;
    acfg->stepDownThreshold = 2.0;
    acfg->stepUpThreshold = 3.0;
    cfg.adapt = acfg;
    std::string err = fatalText([&] { sim.run(cfg); });
    EXPECT_NE(err.find("switchenergy"), std::string::npos) << err;

    // Finite run totals whose sum overflows.
    std::vector<SimResult> results(2);
    for (SimResult &r : results)
        r.adapt.energy.dynamic = 1e308;
    err = fatalText([&results] { sim::aggregateAdapt(results); });
    EXPECT_NE(err.find("switchenergy"), std::string::npos) << err;
}

TEST(ExploreController, SteadyCapViolationDemotesTheParkedPoint)
{
    Simulator sim;
    AdaptConfig cfg;
    cfg.policy = Policy::ExploreGlobal;
    cfg.floorVcc = 525.0;
    cfg.modeVariants = 1;
    cfg.throttleVariants = 1;
    core::CoreConfig core;
    adapt::PowerModel power(sim.cycleTimeModel(),
                            cfg.refTimePerInst,
                            cfg.irawDynOverhead);
    // A cap both candidates fit with the calm telemetry but the
    // busy telemetry blows through at 550 mV.
    const double calm550 =
        power.windowPowerAu(550.0, mechanism::IrawMode::Auto, 1000,
                            600);
    const double busy550 =
        power.windowPowerAu(550.0, mechanism::IrawMode::Auto, 1000,
                            3000);
    cfg.capPowerAu = calm550 / cfg.capSelectFraction + 1e-9;
    ASSERT_GT(busy550, cfg.capPowerAu);

    adapt::VccController ctl(sim.cycleTimeModel(), cfg,
                             mechanism::IrawMode::Auto, 550.0, core,
                             nullptr);
    ctl.evaluate(telemetry(1000, 600));
    adapt::Decision parked = ctl.evaluate(telemetry(1000, 600));
    EXPECT_FALSE(ctl.exploring());
    EXPECT_DOUBLE_EQ(parked.target, 550.0);

    // One violating steady epoch demotes 550 and re-parks on the
    // remaining feasible candidate immediately.
    adapt::Decision demoted = ctl.evaluate(telemetry(1000, 3000));
    EXPECT_EQ(ctl.capStats().capSteadyViolationEpochs, 1u);
    EXPECT_TRUE(demoted.switchVcc);
    EXPECT_DOUBLE_EQ(demoted.target, 525.0);
    EXPECT_FALSE(ctl.exploring());
}

} // namespace
} // namespace iraw
