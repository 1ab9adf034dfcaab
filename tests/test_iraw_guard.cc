/** @file Unit tests for the IRAW port guard (Sec. 4.3 semantics). */

#include <gtest/gtest.h>

#include "memory/iraw_guard.hh"

namespace iraw {
namespace memory {
namespace {

TEST(IrawGuard, DisabledGuardNeverBlocks)
{
    IrawPortGuard g("x");
    g.setStabilizationCycles(0);
    g.noteWrite(100);
    EXPECT_FALSE(g.blocked(101));
    EXPECT_EQ(g.resolve(101), 101u);
    EXPECT_EQ(g.stallCycles(), 0u);
}

TEST(IrawGuard, BlocksExactlyTheWindow)
{
    IrawPortGuard g("x");
    g.setStabilizationCycles(2);
    g.noteWrite(100);
    EXPECT_FALSE(g.blocked(100)) << "the write cycle itself reads "
                                    "old data";
    EXPECT_TRUE(g.blocked(101));
    EXPECT_TRUE(g.blocked(102));
    EXPECT_FALSE(g.blocked(103));
}

TEST(IrawGuard, FutureWritesDoNotBlockEarlierAccesses)
{
    // Regression: a fill scheduled for cycle 200 must not stall an
    // access at cycle 150 (the entry is still old and stable).
    IrawPortGuard g("x");
    g.setStabilizationCycles(1);
    g.noteWrite(200);
    EXPECT_FALSE(g.blocked(150));
    EXPECT_EQ(g.resolve(150), 150u);
    EXPECT_TRUE(g.blocked(201));
    EXPECT_EQ(g.resolve(201), 202u);
}

TEST(IrawGuard, ResolveAccumulatesStalls)
{
    IrawPortGuard g("x");
    g.setStabilizationCycles(3);
    g.noteWrite(10);
    EXPECT_EQ(g.resolve(11), 14u);
    EXPECT_EQ(g.stallCycles(), 3u);
    EXPECT_EQ(g.stallEvents(), 1u);
    EXPECT_EQ(g.resolve(14), 14u);
    EXPECT_EQ(g.stallCycles(), 3u);
}

TEST(IrawGuard, ChainsAcrossBackToBackWindows)
{
    IrawPortGuard g("x");
    g.setStabilizationCycles(1);
    g.noteWrite(10); // blocks 11
    g.noteWrite(11); // blocks 12
    g.noteWrite(12); // blocks 13
    EXPECT_EQ(g.resolve(11), 14u);
    EXPECT_EQ(g.stallCycles(), 3u);
}

TEST(IrawGuard, ManyWritesPruneWithoutLosingRecentWindows)
{
    IrawPortGuard g("x");
    g.setStabilizationCycles(1);
    for (Cycle c = 0; c < 1000; c += 10)
        g.noteWrite(c);
    // Old windows pruned, newest still active.
    EXPECT_EQ(g.resolve(991), 992u);
    EXPECT_FALSE(g.blocked(995));
}

TEST(IrawGuard, ReconfigurationTakesEffect)
{
    IrawPortGuard g("x");
    g.setStabilizationCycles(1);
    g.noteWrite(10);
    EXPECT_TRUE(g.blocked(11));
    g.setStabilizationCycles(0); // Vcc raised: IRAW off
    EXPECT_FALSE(g.blocked(11));
}

} // namespace
} // namespace memory
} // namespace iraw
