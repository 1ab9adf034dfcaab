/** @file Unit tests for the Vcc sweep experiment (Figures 11/12). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/runner.hh"

namespace iraw {
namespace sim {
namespace {

SweepConfig
smallSweep()
{
    SweepConfig cfg;
    cfg.suite = {{"spec2006int", 1, 8000}};
    cfg.voltages = {600, 500, 400};
    return cfg;
}

TEST(SweepRunner, RowsCoverRequestedVoltages)
{
    Simulator sim;
    SweepRunner sweep(sim);
    auto rows = sweep.run(smallSweep());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_DOUBLE_EQ(rows[0].vcc, 600.0);
    EXPECT_DOUBLE_EQ(rows[2].vcc, 400.0);
}

TEST(SweepRunner, FrequencyGainMatchesCircuitModel)
{
    Simulator sim;
    SweepRunner sweep(sim);
    auto rows = sweep.run(smallSweep());
    EXPECT_NEAR(rows[0].frequencyGain, 1.0, 1e-9);
    EXPECT_NEAR(rows[1].frequencyGain,
                sim.cycleTimeModel().frequencyGain(500), 1e-9);
    EXPECT_NEAR(rows[2].frequencyGain,
                sim.cycleTimeModel().frequencyGain(400), 1e-9);
}

TEST(SweepRunner, SpeedupBelowFrequencyGain)
{
    // Paper Sec. 5.2: performance increase trails the frequency
    // increase (stalls + constant-ns DRAM).
    Simulator sim;
    SweepRunner sweep(sim);
    auto rows = sweep.run(smallSweep());
    for (const auto &row : rows) {
        if (row.iraw.irawEnabled) {
            EXPECT_LT(row.speedup, row.frequencyGain);
        }
    }
}

TEST(SweepRunner, EdpImprovesAtLowVcc)
{
    // Paper Figure 12: relative EDP well below 1 at 400-500 mV.
    Simulator sim;
    SweepRunner sweep(sim);
    auto rows = sweep.run(smallSweep());
    EXPECT_LT(rows[1].relativeEdp, 0.95);
    EXPECT_LT(rows[2].relativeEdp, rows[1].relativeEdp);
    EXPECT_NEAR(rows[2].relativeEdp,
                rows[2].relativeEnergy * rows[2].relativeDelay,
                1e-12);
}

TEST(SweepRunner, EnergySlightlyWorseAtHighVcc)
{
    // Figure 12: ~1% dynamic overhead with no compensating speedup
    // at 600 mV and above.
    Simulator sim;
    SweepRunner sweep(sim);
    auto rows = sweep.run(smallSweep());
    EXPECT_GT(rows[0].relativeEnergy, 1.0);
    EXPECT_LT(rows[0].relativeEnergy, 1.03);
    EXPECT_NEAR(rows[0].relativeDelay, 1.0, 1e-9);
}

TEST(SweepRunner, MachineAggregatesSuite)
{
    Simulator sim;
    SweepRunner sweep(sim);
    SweepConfig cfg = smallSweep();
    cfg.suite.push_back({"multimedia", 1, 8000});
    auto m =
        sweep.runMachine(cfg, 500, mechanism::IrawMode::Auto);
    EXPECT_EQ(m.instructions, 16000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_TRUE(m.irawEnabled);
}

TEST(SweepRunner, EmptyConfigRejected)
{
    Simulator sim;
    SweepRunner sweep(sim);
    SweepConfig cfg;
    EXPECT_THROW(sweep.run(cfg), FatalError);
    cfg.suite = {{"kernels", 1, 100}};
    cfg.voltages = {};
    EXPECT_THROW(sweep.run(cfg), FatalError);
}

} // namespace
} // namespace sim
} // namespace iraw
