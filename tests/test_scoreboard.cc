/** @file Unit tests for the core scoreboard (Figures 6 and 8). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/scoreboard.hh"

namespace iraw {
namespace core {
namespace {

TEST(ScoreboardTest, FreshRegistersReady)
{
    Scoreboard sb(8, 1);
    for (isa::RegId r = 0; r < isa::kNumLogicalRegs; ++r) {
        EXPECT_TRUE(sb.isReady(r));
        EXPECT_TRUE(sb.quiescent(r));
    }
}

TEST(ScoreboardTest, BaselineProducerTiming)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(0);
    sb.setProducer(3, 3); // 3-cycle producer
    EXPECT_FALSE(sb.isReady(3));
    sb.tick();
    EXPECT_FALSE(sb.isReady(3));
    sb.tick();
    EXPECT_FALSE(sb.isReady(3));
    sb.tick();
    EXPECT_TRUE(sb.isReady(3)) << "ready at latency via bypass";
    sb.tick();
    EXPECT_TRUE(sb.isReady(3));
}

TEST(ScoreboardTest, IrawProducerHasBubble)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(1);
    sb.setProducer(3, 3);
    // Cycle-by-cycle (Figure 8): not ready x3, bypass, bubble, then
    // ready forever.
    std::vector<bool> expected = {false, false, false, true,
                                  false, true,  true};
    for (size_t c = 0; c < expected.size(); ++c) {
        EXPECT_EQ(sb.isReady(3), expected[c]) << "cycle " << c;
        sb.tick();
    }
}

TEST(ScoreboardTest, ShadowTracksBaselineView)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(1);
    sb.setProducer(3, 1);
    sb.tick();
    EXPECT_TRUE(sb.isReady(3));      // bypass cycle
    EXPECT_TRUE(sb.isReadyShadow(3));
    sb.tick();
    // The IRAW bubble: blocked in reality, open in the shadow —
    // exactly the condition the 13.2% statistic counts.
    EXPECT_FALSE(sb.isReady(3));
    EXPECT_TRUE(sb.isReadyShadow(3));
    sb.tick();
    EXPECT_TRUE(sb.isReady(3));
}

TEST(ScoreboardTest, LongLatencyEventWakeup)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(1);
    sb.setLongLatencyProducer(5, 20);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(sb.isReady(5));
        EXPECT_FALSE(sb.isReadyShadow(5));
        EXPECT_FALSE(sb.quiescent(5));
        EXPECT_EQ(sb.rawPattern(5), 0u);
        sb.tick();
    }
    EXPECT_TRUE(sb.isReady(5)) << "bypass on completion";
    sb.tick();
    EXPECT_FALSE(sb.isReady(5)) << "stabilization bubble";
    EXPECT_TRUE(sb.isReadyShadow(5));
    sb.tick();
    EXPECT_TRUE(sb.isReady(5));
}

TEST(ScoreboardTest, LongLatencyWakeupSurvivesAdvance)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(1);
    sb.setLongLatencyProducer(5, 20);
    sb.advance(19);
    EXPECT_FALSE(sb.isReady(5));
    sb.advance(1);
    EXPECT_TRUE(sb.isReady(5)) << "bypass on completion";
    sb.advance(1);
    EXPECT_FALSE(sb.isReady(5)) << "stabilization bubble";
}

TEST(ScoreboardTest, LongLatencyReadyCycleMustBeInTheFuture)
{
    Scoreboard sb(8, 1);
    EXPECT_THROW(sb.setLongLatencyProducer(2, 0), PanicError);
    sb.tick();
    sb.tick();
    EXPECT_THROW(sb.setLongLatencyProducer(2, 2), PanicError);
    EXPECT_NO_THROW(sb.setLongLatencyProducer(2, 3));
}

TEST(ScoreboardTest, MaxEncodableLatencyRespectsIrawBits)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(0);
    EXPECT_EQ(sb.maxEncodableLatency(), 6u);
    sb.setStabilizationCycles(1);
    EXPECT_EQ(sb.maxEncodableLatency(), 5u);
    EXPECT_NO_THROW(sb.setProducer(1, 5));
    EXPECT_THROW(sb.setProducer(1, 6), PanicError);
}

TEST(ScoreboardTest, ReconfigurationAffectsOnlyNewProducers)
{
    Scoreboard sb(8, 1);
    sb.setStabilizationCycles(1);
    sb.setProducer(3, 1);
    // Vcc rises mid-flight: in-flight patterns keep their timing,
    // exactly like the hardware shift registers would.
    sb.setStabilizationCycles(0);
    sb.tick();
    sb.tick();
    EXPECT_FALSE(sb.isReady(3)) << "old pattern still has its bubble";
    sb.setProducer(4, 1);
    sb.tick();
    EXPECT_TRUE(sb.isReady(4));
    sb.tick();
    EXPECT_TRUE(sb.isReady(4)) << "new producer has no bubble";
}

TEST(ScoreboardTest, ResetRestoresQuiescence)
{
    Scoreboard sb(8, 1);
    sb.setLongLatencyProducer(2, 30);
    sb.setProducer(3, 4);
    sb.reset();
    EXPECT_TRUE(sb.isReady(2));
    EXPECT_TRUE(sb.isReady(3));
}

TEST(ScoreboardTest, InvalidRegisterPanics)
{
    Scoreboard sb(8, 1);
    EXPECT_THROW(sb.isReady(isa::kInvalidReg), PanicError);
    EXPECT_THROW(sb.setProducer(isa::kNumLogicalRegs, 1),
                 PanicError);
}

TEST(ScoreboardTest, ConstructionValidation)
{
    EXPECT_THROW(Scoreboard(3, 1), FatalError);
    EXPECT_THROW(Scoreboard(8, 7), FatalError);
}

/** Property: under any N, a consumer that waits long enough always
 *  finds the register ready, and readiness is permanent after the
 *  bubble. */
class ScoreboardN : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(ScoreboardN, EventualPermanentReadiness)
{
    uint32_t n = GetParam();
    Scoreboard sb(12, 1);
    sb.setStabilizationCycles(n);
    sb.setProducer(7, 4);
    bool sawReady = false;
    uint32_t readySince = 0;
    for (uint32_t c = 0; c < 24; ++c) {
        bool r = sb.isReady(7);
        if (r && !sawReady) {
            sawReady = true;
        }
        if (c >= 4 + 1 + n) {
            EXPECT_TRUE(r) << "cycle " << c << " N=" << n;
            ++readySince;
        }
        sb.tick();
    }
    EXPECT_TRUE(sawReady);
    EXPECT_GT(readySince, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ns, ScoreboardN,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

} // namespace
} // namespace core
} // namespace iraw
