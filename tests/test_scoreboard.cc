/** @file Unit tests for the core scoreboard (Figures 6 and 8). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/core_config.hh"
#include "core/scoreboard.hh"
#include "fnv1a.hh"
#include "iraw/ready_pattern.hh"

namespace iraw {
namespace core {
namespace {

TEST(ScoreboardTest, FreshRegistersReady)
{
    Scoreboard sb(1);
    for (isa::RegId r = 0; r < isa::kNumLogicalRegs; ++r) {
        EXPECT_TRUE(sb.isReady(r, 0));
        EXPECT_TRUE(sb.isReadyShadow(r, 0));
        EXPECT_FALSE(sb.writePending(r, 0));
    }
}

TEST(ScoreboardTest, BaselineProducerTiming)
{
    Scoreboard sb(1);
    sb.setStabilizationCycles(0);
    sb.setProducer(3, 3, 0); // 3-cycle producer
    EXPECT_FALSE(sb.isReady(3, 0));
    EXPECT_FALSE(sb.isReady(3, 1));
    EXPECT_FALSE(sb.isReady(3, 2));
    EXPECT_TRUE(sb.isReady(3, 3)) << "ready at latency via bypass";
    EXPECT_TRUE(sb.isReady(3, 4));
}

TEST(ScoreboardTest, IrawProducerHasBubble)
{
    Scoreboard sb(1);
    sb.setStabilizationCycles(1);
    sb.setProducer(3, 3, 0);
    // Cycle-by-cycle (Figure 8): not ready x3, bypass, bubble, then
    // ready forever.
    std::vector<bool> expected = {false, false, false, true,
                                  false, true,  true};
    for (uint64_t c = 0; c < expected.size(); ++c)
        EXPECT_EQ(sb.isReady(3, c), expected[c]) << "cycle " << c;
}

TEST(ScoreboardTest, ShadowTracksBaselineView)
{
    Scoreboard sb(1);
    sb.setStabilizationCycles(1);
    sb.setProducer(3, 1, 0);
    EXPECT_TRUE(sb.isReady(3, 1));      // bypass cycle
    EXPECT_TRUE(sb.isReadyShadow(3, 1));
    // The IRAW bubble: blocked in reality, open in the shadow —
    // exactly the condition the 13.2% statistic counts.
    EXPECT_FALSE(sb.isReady(3, 2));
    EXPECT_TRUE(sb.isReadyShadow(3, 2));
    EXPECT_TRUE(sb.isReady(3, 3));
}

TEST(ScoreboardTest, LongLatencyEventWakeup)
{
    // Past the shift registers' reach the value wakes its consumers
    // on arrival, then the register stabilizes like any other.
    Scoreboard sb(1);
    sb.setStabilizationCycles(1);
    sb.setProducer(5, 20, 0);
    for (uint64_t c = 0; c < 20; ++c) {
        EXPECT_FALSE(sb.isReady(5, c));
        EXPECT_FALSE(sb.isReadyShadow(5, c));
        EXPECT_TRUE(sb.writePending(5, c));
    }
    EXPECT_TRUE(sb.isReady(5, 20)) << "bypass on completion";
    EXPECT_FALSE(sb.writePending(5, 20));
    EXPECT_FALSE(sb.isReady(5, 21)) << "stabilization bubble";
    EXPECT_TRUE(sb.isReadyShadow(5, 21));
    EXPECT_TRUE(sb.isReady(5, 22));
}

TEST(ScoreboardTest, ProducerMustArriveAfterIssue)
{
    Scoreboard sb(1);
    EXPECT_THROW(sb.setProducer(2, 0, 0), PanicError);
    EXPECT_THROW(sb.setProducer(2, 1, 2), PanicError);
    EXPECT_THROW(sb.setProducer(2, 2, 2), PanicError);
    EXPECT_NO_THROW(sb.setProducer(2, 3, 2));
}

TEST(ScoreboardTest, ReconfigurationAffectsOnlyNewProducers)
{
    Scoreboard sb(1);
    sb.setStabilizationCycles(1);
    sb.setProducer(3, 1, 0);
    // Vcc rises mid-flight: in-flight producers keep their timing,
    // exactly like the hardware shift registers would.
    sb.setStabilizationCycles(0);
    EXPECT_FALSE(sb.isReady(3, 2)) << "old producer still has its bubble";
    sb.setProducer(4, 3, 2);
    EXPECT_TRUE(sb.isReady(4, 3));
    EXPECT_TRUE(sb.isReady(4, 4)) << "new producer has no bubble";
}

TEST(ScoreboardTest, InvalidRegisterPanics)
{
    Scoreboard sb(1);
    EXPECT_THROW(sb.isReady(isa::kInvalidReg, 0), PanicError);
    EXPECT_THROW(sb.isReadyShadow(isa::kInvalidReg, 0), PanicError);
    EXPECT_THROW(sb.writePending(isa::kInvalidReg, 0), PanicError);
    EXPECT_THROW(sb.setProducer(isa::kNumLogicalRegs, 1, 0),
                 PanicError);
}

TEST(CoreConfig, RejectsNarrowScoreboard)
{
    // A 1-cycle producer's Figure 8 pattern needs its latency bit,
    // the bypass ones, N zeros and one trailing ready bit:
    // bypass + maxN + 2 bits.
    CoreConfig c;
    c.bypassLevels = 1;
    c.maxStabilizationCycles = 5;
    EXPECT_NO_THROW(c.validate());
    c.maxStabilizationCycles = 6;
    EXPECT_THROW(c.validate(), FatalError);
    c.bypassLevels = 4;
    c.maxStabilizationCycles = 2;
    EXPECT_NO_THROW(c.validate());
    c.maxStabilizationCycles = 3;
    EXPECT_THROW(c.validate(), FatalError);
    c.bypassLevels = 7;
    c.maxStabilizationCycles = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = CoreConfig{};
    c.scoreboardBits = 3;
    c.maxStabilizationCycles = 0;
    EXPECT_THROW(c.validate(), FatalError);
}

/** The MSB of Figure 8 pattern @p p after @p shifts shifts. */
bool
readyAfter(mechanism::ReadyPattern p, uint32_t bits, uint64_t shifts)
{
    for (uint64_t s = 0; s < shifts && s < bits; ++s)
        p = mechanism::shiftPattern(p, bits);
    return mechanism::patternReady(p, bits);
}

TEST(ScoreboardTest, MatchesFigure8Patterns)
{
    // Every width, bypass depth and N the core accepts, and every
    // latency the B-bit shift registers encode plus three past it.
    // At every age until the register is stable, isReady reads the
    // MSB of the shifted Figure 8 pattern and isReadyShadow that of
    // the conventional one.  A latency past the registers' reach
    // reads not-ready until its value arrives, then as the
    // latency-0 pattern.
    const isa::RegId reg = 7;
    uint64_t checks = 0;
    std::string firstMismatch;
    for (uint32_t bits : {4u, 8u, 12u, 24u}) {
        for (uint32_t bypass = 1; bypass <= 4 && bypass + 3 <= bits;
             ++bypass) {
            Scoreboard sb(bypass);
            uint64_t now = 0;
            for (uint32_t n = 0; bypass + n + 2 <= bits; ++n) {
                sb.setStabilizationCycles(n);
                const uint32_t reach = bits - 1 - bypass - n;
                for (uint32_t lat = 1; lat <= reach + 3; ++lat) {
                    sb.setProducer(reg, now + lat, now);
                    const bool encoded = lat <= reach;
                    const uint32_t head = encoded ? 0 : lat;
                    const auto real = mechanism::buildReadyPattern(
                        bits, encoded ? lat : 0, bypass, n);
                    const auto shadow = mechanism::buildBaselinePattern(
                        bits, encoded ? lat : 0);
                    for (uint64_t age = 0; age <= lat + bits; ++age) {
                        const bool wantReal =
                            age >= head &&
                            readyAfter(real, bits, age - head);
                        const bool wantShadow =
                            age >= head &&
                            readyAfter(shadow, bits, age - head);
                        if (firstMismatch.empty() &&
                            (sb.isReady(reg, now) != wantReal ||
                             sb.isReadyShadow(reg, now) != wantShadow))
                            firstMismatch =
                                "B=" + std::to_string(bits) +
                                " bypass=" + std::to_string(bypass) +
                                " N=" + std::to_string(n) +
                                " latency=" + std::to_string(lat) +
                                " age=" + std::to_string(age);
                        ++checks;
                        ++now;
                    }
                }
            }
        }
    }
    EXPECT_EQ(firstMismatch, "");
    EXPECT_GT(checks, 40000u);
}

TEST(ScoreboardTest, RandomOpsMatchPinnedDigest)
{
    // Seeded producers of latency 1-300 on random registers (past
    // the shift registers' reach too), N changes and per-register
    // maps between writes, idle advances, with one bypass level (the
    // default core) and with three: every read is folded, so a
    // change to any one moves the digest.
    Pcg32 rng(32);
    Fnv1a h;
    struct Shape
    {
        uint32_t bypass, maxN;
    };
    for (Shape shape : {Shape{1, 4}, Shape{3, 6}}) {
        Scoreboard sb(shape.bypass);
        uint64_t now = 0;
        for (int i = 0; i < 100000; ++i) {
            now += rng.below(3);
            const isa::RegId reg =
                static_cast<isa::RegId>(rng.below(isa::kNumLogicalRegs));
            const uint32_t op = rng.below(100);
            if (op == 0) {
                sb.setStabilizationCycles(rng.below(shape.maxN + 1));
            } else if (op == 1) {
                std::vector<uint32_t> map(isa::kNumLogicalRegs);
                for (uint32_t &n : map)
                    n = rng.below(shape.maxN + 1);
                sb.setStabilizationMap(map);
            } else if (op == 2) {
                now += rng.below(400);
            } else if (op < 30) {
                const uint32_t lat = rng.below(8) == 0
                                         ? 1 + rng.below(300)
                                         : 1 + rng.below(10);
                sb.setProducer(reg, now + lat, now);
            } else {
                h.add(sb.isReady(reg, now), 1);
                h.add(sb.isReadyShadow(reg, now), 1);
            }
        }
    }
    EXPECT_EQ(h.value(), 0x961b042de29f7ebfULL)
        << std::hex << "0x" << h.value();
}

/** Property: under any N, a consumer that waits long enough always
 *  finds the register ready, and readiness is permanent after the
 *  bubble. */
class ScoreboardN : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(ScoreboardN, EventualPermanentReadiness)
{
    uint32_t n = GetParam();
    Scoreboard sb(1);
    sb.setStabilizationCycles(n);
    sb.setProducer(7, 4, 0);
    bool sawReady = false;
    uint32_t readySince = 0;
    for (uint32_t c = 0; c < 24; ++c) {
        bool r = sb.isReady(7, c);
        if (r && !sawReady) {
            sawReady = true;
        }
        if (c >= 4 + 1 + n) {
            EXPECT_TRUE(r) << "cycle " << c << " N=" << n;
            ++readySince;
        }
    }
    EXPECT_TRUE(sawReady);
    EXPECT_GT(readySince, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ns, ScoreboardN,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

} // namespace
} // namespace core
} // namespace iraw
