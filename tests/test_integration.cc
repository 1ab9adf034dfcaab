/** @file
 * End-to-end integration tests: the paper's headline claims checked
 * through the whole stack (circuit model -> trace -> pipeline ->
 * sweep -> energy).  Shape assertions, not absolute numbers.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"

namespace iraw {
namespace sim {
namespace {

/** One shared sweep for all integration assertions (expensive). */
class IntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        simulator = new Simulator();
        SweepConfig cfg;
        cfg.suite = {{"spec2006int", 1, 12000},
                     {"multimedia", 1, 12000}};
        cfg.voltages = {700, 600, 575, 550, 500, 450, 400};
        rows =
            new std::vector<SweepRow>(SweepRunner(*simulator).run(cfg));
    }
    static void
    TearDownTestSuite()
    {
        delete rows;
        delete simulator;
        rows = nullptr;
        simulator = nullptr;
    }

    static const SweepRow &
    at(double vcc)
    {
        for (const auto &row : *rows)
            if (row.vcc == vcc)
                return row;
        throw std::runtime_error("voltage not in sweep");
    }

    static Simulator *simulator;
    static std::vector<SweepRow> *rows;
};

Simulator *IntegrationTest::simulator = nullptr;
std::vector<SweepRow> *IntegrationTest::rows = nullptr;

TEST_F(IntegrationTest, IrawOffAtHighVcc)
{
    EXPECT_FALSE(at(700).iraw.irawEnabled);
    EXPECT_FALSE(at(600).iraw.irawEnabled);
    EXPECT_TRUE(at(575).iraw.irawEnabled);
    EXPECT_NEAR(at(700).speedup, 1.0, 1e-9);
}

TEST_F(IntegrationTest, FrequencyGainShapeMatchesPaper)
{
    // +57% at 500 mV, +99% at 400 mV (paper abstract).
    EXPECT_NEAR(at(500).frequencyGain, 1.57, 0.05);
    EXPECT_NEAR(at(400).frequencyGain, 1.99, 0.05);
}

TEST_F(IntegrationTest, SpeedupGrowsMonotonicallyBelow550)
{
    EXPECT_LT(at(550).speedup, at(500).speedup);
    EXPECT_LT(at(500).speedup, at(450).speedup);
    EXPECT_LT(at(450).speedup, at(400).speedup);
}

TEST_F(IntegrationTest, SpeedupLargeAtLowVcc)
{
    // Paper: 48% at 500 mV and 90% at 400 mV.  Our synthetic
    // workloads are somewhat more memory-bound, so we assert the
    // band rather than the point values (ROADMAP.md items 3 and 9
    // record the measured values and the gap).
    EXPECT_GT(at(500).speedup, 1.25);
    EXPECT_GT(at(400).speedup, 1.6);
    EXPECT_LT(at(400).speedup, at(400).frequencyGain);
}

TEST_F(IntegrationTest, EdpShapeMatchesFigure12)
{
    // Relative EDP ~1 at 600-700, deeply below 1 at the bottom.
    EXPECT_NEAR(at(700).relativeEdp, 1.0, 0.03);
    EXPECT_LT(at(500).relativeEdp, 0.85);
    EXPECT_LT(at(450).relativeEdp, 0.65);
    EXPECT_LT(at(400).relativeEdp, 0.50);
}

TEST_F(IntegrationTest, EnergyWinComesFromLeakage)
{
    const auto &row = at(450);
    // Dynamic energy is ~equal (same instruction count, +1%
    // overhead); leakage shrinks with execution time.
    EXPECT_NEAR(row.irawBreakdown.dynamic /
                    row.baselineBreakdown.dynamic,
                1.01, 0.005);
    EXPECT_LT(row.irawBreakdown.leakage,
              row.baselineBreakdown.leakage);
}

TEST_F(IntegrationTest, StallDegradationInPaperBand)
{
    // Sec. 5.2: performance degradation due to IRAW stalls is
    // 8-10%, dominated by the register file.
    for (double v : {575.0, 500.0, 450.0}) {
        const auto &m = at(v).iraw;
        double stallFrac =
            static_cast<double>(m.rfIrawStalls + m.iqGateStalls +
                                m.dl0IrawStalls +
                                m.otherIrawStalls) /
            m.cycles;
        EXPECT_GT(stallFrac, 0.04) << v;
        EXPECT_LT(stallFrac, 0.14) << v;
        // RF dominates (paper: 8.52 of 8.86 points).
        EXPECT_GT(m.rfIrawStalls, m.iqGateStalls) << v;
        EXPECT_GT(m.rfIrawStalls, m.dl0IrawStalls * 5) << v;
        EXPECT_GT(m.rfIrawStalls, m.otherIrawStalls * 5) << v;
    }
}

TEST_F(IntegrationTest, DelayedInstructionFractionNearPaper)
{
    // Paper: 13.2% of instructions delayed by RF IRAW avoidance.
    const auto &m = at(500).iraw;
    double frac = static_cast<double>(m.rfIrawDelayedInsts) /
                  m.instructions;
    EXPECT_GT(frac, 0.06);
    EXPECT_LT(frac, 0.20);
}

TEST_F(IntegrationTest, BaselineNeverStallsForIraw)
{
    for (const auto &row : *rows) {
        EXPECT_EQ(row.baseline.rfIrawStalls, 0u);
        EXPECT_EQ(row.baseline.dl0IrawStalls, 0u);
        EXPECT_EQ(row.baseline.otherIrawStalls, 0u);
    }
}

} // namespace
} // namespace sim
} // namespace iraw
