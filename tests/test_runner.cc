/**
 * @file
 * Unit tests for the parallel experiment runner: thread-count and
 * chunk-size determinism of the sweep results (every schedule must
 * agree bitwise), error propagation out of a wave, and the scenario
 * registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>

#include "circuit/voltage.hh"
#include "common/logging.hh"
#include "fields_equal.hh"
#include "obs/telemetry.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace iraw {
namespace sim {
namespace {

// --------------------------------------------- runner determinism

SweepConfig
smallSweep()
{
    SweepConfig cfg;
    cfg.suite = {{"spec2006int", 1, 6000},
                 {"multimedia", 2, 6000},
                 {"kernels", 3, 6000}};
    cfg.voltages = {600, 500, 450};
    cfg.warmupInstructions = 4000;
    return cfg;
}

TEST(SweepRunner, AggregatesAreBitwiseIdenticalAcrossThreadCounts)
{
    Simulator sim;
    SweepConfig cfg = smallSweep();
    auto serial = SweepRunner(sim, {1}).run(cfg);
    auto parallel = SweepRunner(sim, {4}).run(cfg);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const SweepRow &s = serial[i];
        const SweepRow &p = parallel[i];
        EXPECT_EQ(s.vcc, p.vcc);
        expectMachinesIdentical(s.baseline, p.baseline);
        expectMachinesIdentical(s.iraw, p.iraw);
        // Bitwise equality of every derived double.
        EXPECT_EQ(s.frequencyGain, p.frequencyGain);
        EXPECT_EQ(s.speedup, p.speedup);
        EXPECT_EQ(s.energyBaseline, p.energyBaseline);
        EXPECT_EQ(s.energyIraw, p.energyIraw);
        EXPECT_EQ(s.relativeEnergy, p.relativeEnergy);
        EXPECT_EQ(s.relativeDelay, p.relativeDelay);
        EXPECT_EQ(s.relativeEdp, p.relativeEdp);
    }
}

// At voltages where N > 0, long-latency writes complete in the
// scoreboard's stabilization window: the sweep aggregates stay
// bitwise identical between 1 and 8 workers there too.
TEST(SweepRunner, SweepAggregatesIdenticalAcrossThreadCounts)
{
    Simulator simulator;
    SweepConfig cfg;
    cfg.suite = {{"spec2006int", 1, 6000},
                 {"multimedia", 2, 6000},
                 {"kernels", 3, 6000}};
    cfg.voltages = {500, 400};
    cfg.warmupInstructions = 4000;

    auto serial = SweepRunner(simulator, {1}).run(cfg);
    auto parallel = SweepRunner(simulator, {8}).run(cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        expectMachinesIdentical(serial[i].baseline,
                                parallel[i].baseline);
        expectMachinesIdentical(serial[i].iraw, parallel[i].iraw);
        EXPECT_EQ(serial[i].speedup, parallel[i].speedup);
        EXPECT_EQ(serial[i].relativeEdp, parallel[i].relativeEdp);
    }
}

// Determinism invariant 4 (dedup soundness): over the whole standard
// sweep the batch serves some points from another point's simulation
// (a behaviour-class alias), and every row still equals a lone run of
// its own point.  On the 25 mV grid every alias is an Auto point that
// resolves to the baseline at the same Vcc; the two off-grid points
// share a class with 600 mV ForcedOff and 525 mV Auto, so their
// aliases must re-derive cycle and execution time for their own Vcc.
TEST(SweepRunner, BatchMatchesIndividualRuns)
{
    Simulator sim;
    SweepConfig cfg = smallSweep();
    RunnerConfig runnerCfg(4);
    runnerCfg.telemetry =
        std::make_shared<obs::TelemetrySession>(obs::TelemetryConfig{});
    SweepRunner runner(sim, runnerCfg);
    std::vector<MachinePoint> points;
    for (circuit::MilliVolts vcc : circuit::standardSweep()) {
        for (auto mode : {mechanism::IrawMode::ForcedOff,
                          mechanism::IrawMode::Auto})
            points.push_back({vcc, mode});
    }
    points.push_back({605, mechanism::IrawMode::ForcedOff});
    points.push_back({530, mechanism::IrawMode::Auto});
    auto batch = runner.runMachines(cfg, points);
    obs::MetricsRegistry &metrics = runnerCfg.telemetry->metrics();
    EXPECT_GT(metrics.counter("runner", "aliased_points").value(), 0u);
    ASSERT_EQ(batch.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        auto one = runner.runMachine(cfg, points[i].vcc,
                                     points[i].mode);
        expectMachinesIdentical(batch[i], one);
    }
}

TEST(SweepRunner, ChunkSizeInvariantIncludingNonDividing)
{
    // 5 configs on one trace: chunk size 8 (one undersized chunk),
    // 3 (a 3+2 split) and 1 (one config per work item), each at
    // threads=1 and threads=4, must all reproduce plain
    // Simulator::run calls.
    Simulator sim;
    std::vector<SimConfig> cfgs;
    std::vector<SimResult> reference;
    for (double vcc : {600.0, 550.0, 500.0, 450.0, 400.0}) {
        SimConfig cfg;
        cfg.instructions = 6000;
        cfg.warmupInstructions = 3000;
        cfg.vcc = vcc;
        cfgs.push_back(cfg);
        reference.push_back(sim.run(cfg));
    }
    for (unsigned threads : {1u, 4u}) {
        for (unsigned chunk : {1u, 3u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " chunk=" + std::to_string(chunk));
            auto got = SweepRunner(sim, RunnerConfig{threads, chunk})
                           .runConfigs(cfgs);
            ASSERT_EQ(got.size(), reference.size());
            for (size_t i = 0; i < reference.size(); ++i)
                expectFieldsEqual(reference[i], got[i]);
        }
    }
}

TEST(SweepRunner, MergeIsIndependentOfPartialExecutionOrder)
{
    // merge() folds in suite order regardless of which worker
    // finished first; feeding it the same results must be stable.
    Simulator sim;
    SimConfig a, b;
    a.workload = "spec2006int";
    a.instructions = 4000;
    a.warmupInstructions = 2000;
    a.vcc = 500;
    b = a;
    b.workload = "multimedia";
    b.seed = 9;
    std::vector<SimResult> results{sim.run(a), sim.run(b)};
    auto first = SweepRunner::merge(500, results);
    auto again = SweepRunner::merge(500, results);
    expectMachinesIdentical(first, again);
    EXPECT_EQ(first.instructions, 8000u);
}

TEST(SweepRunner, ZeroThreadsMeansHardwareConcurrency)
{
    Simulator sim;
    SweepRunner runner(sim, {0});
    EXPECT_EQ(runner.effectiveThreads(),
              std::max(1u, std::thread::hardware_concurrency()));
}

// A failing chunk raises on the caller's thread, and at every thread
// count it is the error a serial run raises: the lowest failing
// chunk's.  Chunk 1 runs a whole simulation before its out-of-range
// Vcc fails, so on four threads chunk 3's zero budget has usually
// failed first; chunk 1's error must still be the one raised.
TEST(SweepRunner, LowestFailingChunkRaisesAtEveryThreadCount)
{
    Simulator sim;
    std::vector<SimConfig> cfgs;
    for (uint64_t seed : {1, 2, 2, 3, 4}) {
        SimConfig cfg;
        cfg.instructions = 20000;
        cfg.warmupInstructions = 1000;
        cfg.seed = seed; // one trace group, so one chunk, per seed
        cfgs.push_back(cfg);
    }
    cfgs[2].vcc = 2000;
    cfgs[4].instructions = 0;
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        try {
            SweepRunner(sim, {threads}).runConfigs(cfgs);
            ADD_FAILURE() << "no error raised";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(),
                         "Simulator: Vcc 2000 mV outside model range");
        }
    }
}

TEST(SweepRunner, EmptyWaveReturnsNoResults)
{
    Simulator sim;
    EXPECT_TRUE(SweepRunner(sim, {4}).runConfigs({}).empty());
}

TEST(SweepRunner, EmptyConfigRejected)
{
    Simulator sim;
    SweepRunner runner(sim, {2});
    SweepConfig cfg;
    EXPECT_THROW(runner.run(cfg), FatalError);
    cfg.suite = {{"kernels", 1, 100}};
    cfg.voltages = {};
    EXPECT_THROW(runner.run(cfg), FatalError);
}

// ---------------------------------------------- scenario registry

int
trivialScenario(ScenarioContext &ctx)
{
    ctx.out() << "trivial ran\n";
    return 0;
}

IRAW_SCENARIO("test_trivial", "registry lookup fixture",
              trivialScenario);

TEST(ScenarioRegistry, LookupFindsRegisteredScenario)
{
    const Scenario *s =
        ScenarioRegistry::instance().find("test_trivial");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name, "test_trivial");
    EXPECT_EQ(s->description, "registry lookup fixture");
    EXPECT_EQ(s->fn, &trivialScenario);
}

TEST(ScenarioRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(ScenarioRegistry::instance().find("no_such"),
              nullptr);
}

TEST(ScenarioRegistry, ListingIsNameSorted)
{
    auto all = ScenarioRegistry::instance().all();
    ASSERT_FALSE(all.empty());
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(ScenarioRegistry, DuplicateRegistrationPanics)
{
    EXPECT_THROW(ScenarioRegistry::instance().add(
                     {"test_trivial", "dup", trivialScenario}),
                 PanicError);
}

TEST(ScenarioMain, RunsSelectedScenario)
{
    const char *argv[] = {"driver", "scenario=test_trivial"};
    EXPECT_EQ(scenarioMain(2, argv), 0);
}

TEST(ScenarioMain, UnknownScenarioFails)
{
    const char *argv[] = {"driver", "scenario=no_such"};
    EXPECT_EQ(scenarioMain(2, argv), 1);
}

TEST(ScenarioContext, ParsesSharedOverrides)
{
    const char *argv[] = {"driver", "quick=1", "insts=1234",
                          "threads=3", "warmup=99"};
    OptionMap opts = OptionMap::parse(5, argv);
    std::ostringstream out;
    ScenarioContext ctx(opts, out);
    EXPECT_EQ(ctx.settings().threads, 3u);
    EXPECT_EQ(ctx.settings().warmup, 99u);
    ASSERT_FALSE(ctx.settings().suite.empty());
    EXPECT_EQ(ctx.settings().suite.front().instructions, 1234u);
    EXPECT_TRUE(opts.unusedKeys().empty());
}

TEST(ScenarioContext, RejectsAbsurdThreadCounts)
{
    std::ostringstream out;
    const char *neg[] = {"driver", "threads=-1"};
    OptionMap negOpts = OptionMap::parse(2, neg);
    EXPECT_THROW(ScenarioContext(negOpts, out), FatalError);

    const char *huge[] = {"driver", "threads=100000"};
    OptionMap hugeOpts = OptionMap::parse(2, huge);
    EXPECT_THROW(ScenarioContext(hugeOpts, out), FatalError);
}

} // namespace
} // namespace sim
} // namespace iraw
