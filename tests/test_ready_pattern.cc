/** @file
 * Unit tests for scoreboard ready patterns — these encode the
 * paper's Figures 6 and 8 bit-for-bit.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "iraw/ready_pattern.hh"

namespace iraw {
namespace mechanism {
namespace {

std::string
str(ReadyPattern p, uint32_t bits)
{
    return patternToString(p, bits);
}

TEST(ReadyPattern, PaperFigure6Baseline)
{
    // Sec. 4.1.1: a 3-cycle instruction in a 5-bit scoreboard sets
    // 00011.
    EXPECT_EQ(str(buildBaselinePattern(5, 3), 5), "00011");
    // ... and shifts 00111, 01111, 11111.
    ReadyPattern p = buildBaselinePattern(5, 3);
    p = shiftPattern(p, 5);
    EXPECT_EQ(str(p, 5), "00111");
    p = shiftPattern(p, 5);
    EXPECT_EQ(str(p, 5), "01111");
    p = shiftPattern(p, 5);
    EXPECT_EQ(str(p, 5), "11111");
    EXPECT_TRUE(patternReady(p, 5));
    EXPECT_TRUE(patternQuiescent(p, 5));
}

TEST(ReadyPattern, PaperFigure8Iraw)
{
    // Sec. 4.1.2: 3-cycle producer, 1 bypass level, N=1, 7 bits:
    // 0001011.
    EXPECT_EQ(str(buildReadyPattern(7, 3, 1, 1), 7), "0001011");
}

TEST(ReadyPattern, PaperFigure8ShiftSequence)
{
    // Figure 8's cycle-by-cycle sequence: ready at i+3 (bypass),
    // *not ready* at i+4 (RF still stabilizing), ready from i+5 on.
    ReadyPattern p = buildReadyPattern(7, 3, 1, 1);
    std::vector<bool> readiness;
    for (int cycle = 0; cycle < 7; ++cycle) {
        readiness.push_back(patternReady(p, 7));
        p = shiftPattern(p, 7);
    }
    // i, i+1, i+2: executing.
    EXPECT_FALSE(readiness[0]);
    EXPECT_FALSE(readiness[1]);
    EXPECT_FALSE(readiness[2]);
    // i+3: bypass window.
    EXPECT_TRUE(readiness[3]);
    // i+4: the IRAW bubble.
    EXPECT_FALSE(readiness[4]);
    // i+5 onwards: stabilized.
    EXPECT_TRUE(readiness[5]);
    EXPECT_TRUE(readiness[6]);
}

TEST(ReadyPattern, PaperSection413VccReconfiguration)
{
    // Sec. 4.1.3: the same 3-cycle producer writes 0001011 at
    // <= 575 mV and 0001111 at >= 600 mV (IRAW off).
    EXPECT_EQ(str(buildReadyPattern(7, 3, 1, 1), 7), "0001011");
    EXPECT_EQ(str(buildReadyPattern(7, 3, 1, 0), 7), "0001111");
}

TEST(ReadyPattern, NZeroDegeneratesToBaseline)
{
    for (uint32_t lat = 0; lat <= 4; ++lat)
        EXPECT_EQ(buildReadyPattern(8, lat, 2, 0),
                  buildBaselinePattern(8, lat));
}

TEST(ReadyPattern, EventWakeupPattern)
{
    // A completing long-latency producer (latency section empty):
    // bypass one, N-zero bubble, then ones: 1011111.
    EXPECT_EQ(str(buildReadyPattern(7, 0, 1, 1), 7), "1011111");
}

TEST(ReadyPattern, MultiCycleBubble)
{
    // N=2, 2 bypass levels, 2-cycle producer, 9 bits:
    // 00 11 00 111.
    EXPECT_EQ(str(buildReadyPattern(9, 2, 2, 2), 9), "001100111");
}

TEST(ReadyPattern, ShiftReplicatesLsb)
{
    ReadyPattern p = buildReadyPattern(6, 1, 1, 1); // 010111
    EXPECT_EQ(str(p, 6), "010111");
    p = shiftPattern(p, 6);
    EXPECT_EQ(str(p, 6), "101111");
    p = shiftPattern(p, 6);
    EXPECT_EQ(str(p, 6), "011111");
}

TEST(ReadyPattern, RejectsOverfullPatterns)
{
    // latency + bypass + N must leave one trailing ready bit.
    EXPECT_THROW(buildReadyPattern(5, 3, 1, 1), FatalError);
    EXPECT_THROW(buildReadyPattern(5, 5, 0, 0), FatalError);
    EXPECT_NO_THROW(buildReadyPattern(6, 3, 1, 1));
}

TEST(ReadyPattern, RejectsBadWidths)
{
    EXPECT_THROW(buildReadyPattern(1, 0, 0, 0), FatalError);
    EXPECT_THROW(buildReadyPattern(32, 1, 1, 1), FatalError);
}

/**
 * Property: for any (latency, bypass, N) combination, a consumer
 * checking the MSB each cycle is blocked for exactly `latency`
 * cycles, open for `bypass` cycles, blocked for `N`, then open
 * forever.
 */
struct PatternCase
{
    uint32_t bits, latency, bypass, n;
};

class PatternProperty : public ::testing::TestWithParam<PatternCase>
{};

TEST_P(PatternProperty, WindowStructure)
{
    auto [bits, latency, bypass, n] = GetParam();
    ReadyPattern p = buildReadyPattern(bits, latency, bypass, n);
    for (uint32_t c = 0; c < bits + 4; ++c) {
        bool ready = patternReady(p, bits);
        bool expect;
        if (c < latency)
            expect = false;
        else if (n > 0 && c < latency + bypass)
            expect = true;
        else if (n > 0 && c < latency + bypass + n)
            expect = false;
        else
            expect = true;
        EXPECT_EQ(ready, expect)
            << "cycle " << c << " of (" << latency << "," << bypass
            << "," << n << ")";
        p = shiftPattern(p, bits);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PatternProperty,
    ::testing::Values(PatternCase{8, 1, 1, 1}, PatternCase{8, 3, 1, 1},
                      PatternCase{8, 1, 2, 2}, PatternCase{8, 0, 1, 1},
                      PatternCase{8, 4, 1, 2}, PatternCase{12, 5, 2, 3},
                      PatternCase{8, 1, 1, 0}, PatternCase{8, 6, 0, 0},
                      PatternCase{16, 9, 3, 2}));

} // namespace
} // namespace mechanism
} // namespace iraw
