/** @file Unit tests for the top-level simulator. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "sim/simulation.hh"
#include "sim/workload_suite.hh"

namespace iraw {
namespace sim {
namespace {

TEST(Simulation, RunProducesConsistentResult)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 20000;
    cfg.warmupInstructions = 10000;
    cfg.vcc = 500;
    SimResult r = s.run(cfg);
    EXPECT_EQ(r.pipeline.committedInsts, 20000u);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_NEAR(r.execTimeAu,
                r.pipeline.cycles * r.cycleTimeAu, 1e-6);
    EXPECT_TRUE(r.settings.enabled);
    EXPECT_EQ(r.settings.stabilizationCycles, 1u);
}

TEST(Simulation, WarmupExcludedFromStats)
{
    Simulator s;
    SimConfig warm, cold;
    warm.instructions = cold.instructions = 20000;
    warm.warmupInstructions = 30000;
    cold.warmupInstructions = 0;
    warm.vcc = cold.vcc = 600;
    warm.mode = cold.mode = mechanism::IrawMode::ForcedOff;
    SimResult rw = s.run(warm);
    SimResult rc = s.run(cold);
    // Warm caches -> strictly better IPC than a cold run of the
    // same window length.
    EXPECT_GT(rw.ipc, rc.ipc);
    EXPECT_LT(rw.ul1MissRate, rc.ul1MissRate);
    EXPECT_EQ(rw.pipeline.committedInsts, 20000u);
}

TEST(Simulation, FillBufferAllocatesPastCompletedFill)
{
    // In this run a TLB-miss penalty or an IRAW guard stall moves a
    // fill-buffer allocation past a completed but not yet retired
    // fill with every entry still valid; allocate() must take that
    // entry, as full() counts it free, instead of panicking with
    // "fill buffer fb: allocate() with no free entry".
    Simulator s;
    SimConfig cfg;
    cfg.workload = "spec2006int";
    cfg.seed = 12;
    cfg.instructions = 60000;
    cfg.warmupInstructions = 40000;
    cfg.vcc = 500;
    SimResult r = s.run(cfg);
    EXPECT_EQ(r.pipeline.committedInsts, 60000u);
    EXPECT_TRUE(r.settings.enabled);
}

TEST(Simulation, DramCyclesScaleWithFrequency)
{
    // Constant nanosecond DRAM latency: more cycles at the faster
    // (IRAW) clock -- the paper's memory effect.
    Simulator s;
    SimConfig base, fast;
    base.instructions = fast.instructions = 5000;
    base.warmupInstructions = fast.warmupInstructions = 1000;
    base.vcc = fast.vcc = 450;
    base.mode = mechanism::IrawMode::ForcedOff;
    fast.mode = mechanism::IrawMode::Auto;
    SimResult rb = s.run(base);
    SimResult rf = s.run(fast);
    EXPECT_GT(rf.dramCycles, rb.dramCycles);
}

TEST(Simulation, DramCyclesHelper)
{
    EXPECT_EQ(Simulator::dramCyclesAt(2.0, 80.0),
              static_cast<uint32_t>(
                  std::ceil(80.0 / (2.0 * kNanosecondsPerAu))));
    EXPECT_GE(Simulator::dramCyclesAt(1000.0, 0.001), 1u);
    EXPECT_THROW(Simulator::dramCyclesAt(0.0, 80.0), FatalError);
}

TEST(Simulation, BaselineModeDisablesEverything)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 10000;
    cfg.warmupInstructions = 2000;
    cfg.vcc = 450;
    cfg.mode = mechanism::IrawMode::ForcedOff;
    SimResult r = s.run(cfg);
    EXPECT_FALSE(r.settings.enabled);
    EXPECT_EQ(r.pipeline.rfIrawStallCycles, 0u);
    EXPECT_EQ(r.dl0GuardStalls, 0u);
    EXPECT_EQ(r.otherGuardStalls, 0u);
}

TEST(Simulation, InvalidConfigsRejected)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 0;
    EXPECT_THROW(s.run(cfg), FatalError);
    cfg.instructions = 100;
    cfg.vcc = 300; // below model range
    EXPECT_THROW(s.run(cfg), FatalError);
    cfg.vcc = 500;
    cfg.workload = "unknown-workload";
    EXPECT_THROW(s.run(cfg), FatalError);
}

TEST(Simulation, ResultsReproducible)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 10000;
    cfg.warmupInstructions = 5000;
    cfg.vcc = 500;
    SimResult a = s.run(cfg);
    SimResult b = s.run(cfg);
    EXPECT_EQ(a.pipeline.cycles, b.pipeline.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Simulation, BranchlessWindowIsPerfectlyPredicted)
{
    // A window with zero predictions has nothing mispredicted; it
    // must report 100% accuracy, not 0%.
    EXPECT_DOUBLE_EQ(branchAccuracy(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(branchAccuracy(100, 0), 1.0);
    EXPECT_DOUBLE_EQ(branchAccuracy(100, 25), 0.75);
}

TEST(Simulation, MissRatioGuardsZeroAccesses)
{
    EXPECT_DOUBLE_EQ(missRatio(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(missRatio(10, 10), 0.0);
    EXPECT_DOUBLE_EQ(missRatio(10, 7), 0.3);
}

TEST(Simulation, BpAccuracyPositiveOnRealRuns)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 10000;
    cfg.warmupInstructions = 2000;
    cfg.vcc = 500;
    SimResult r = s.run(cfg);
    EXPECT_GT(r.bpAccuracy, 0.0);
    EXPECT_LE(r.bpAccuracy, 1.0);
}

TEST(WorkloadSuite, DefaultCoversAllProfiles)
{
    auto suite = defaultSuite(1000, 2);
    EXPECT_EQ(suite.size(), 9u * 2u);
    auto quick = quickSuite(500);
    EXPECT_EQ(quick.size(), 3u);
    for (const auto &e : quick)
        EXPECT_EQ(e.instructions, 500u);
}

} // namespace
} // namespace sim
} // namespace iraw
