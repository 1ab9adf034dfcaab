/** @file Unit tests for the IRAW port guard (Sec. 4.3 semantics). */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fnv1a.hh"
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

TEST(IrawGuard, PruneDependsOnRequestOrder)
{
    // Requests do not arrive in cycle order (a DL0 access behind a
    // DTLB miss resolves 20 cycles ahead of the next load's), and
    // the prune that runs once 16 windows are noted drops every
    // window ended before the request that triggered it.  So a later
    // request can hide a window from an earlier one; the simulated
    // timing depends on this, and a faster guard must keep it.
    auto noted = [] {
        IrawPortGuard g("x");
        g.setStabilizationCycles(2);
        for (Cycle c = 0; c < 15; ++c)
            g.noteWrite(c); // 15 old windows
        g.noteWrite(100);   // blocks 101 and 102
        return g;
    };
    IrawPortGuard fresh = noted();
    EXPECT_EQ(fresh.resolve(101), 103u);
    IrawPortGuard later = noted();
    EXPECT_EQ(later.resolve(120), 120u);
    EXPECT_EQ(later.resolve(101), 101u);
}

TEST(IrawGuard, RandomOpsMatchPinnedDigest)
{
    // Out-of-order resolve cycles, future-dated uniform and per-line
    // windows, blocked() probes and N changes (0 included), at write
    // densities from sparse to crowded, pinned bit for bit: a change
    // to any result, to the prune or to the stall counters moves the
    // digest.
    Pcg32 rng(31);
    IrawPortGuard g("pin");
    g.setStabilizationCycles(2);
    Fnv1a h;
    Cycle now = 1000;
    uint32_t writeShare = 0;
    for (int i = 0; i < 200000; ++i) {
        if (i % 4000 == 0)
            writeShare = 2 + rng.below(24); // percent per write kind
        now += rng.below(3);
        const uint32_t op = rng.below(100);
        if (op == 0)
            g.setStabilizationCycles(rng.below(6));
        else if (op <= writeShare)
            g.noteWrite(now + rng.below(40));
        else if (op <= 2 * writeShare)
            g.noteWrite(now + rng.below(40), rng.below(8));
        else if (op < 90)
            h.add(g.resolve(now + rng.below(24)));
        else
            h.add(g.blocked(now + rng.below(24)));
    }
    h.add(g.writes());
    h.add(g.stallCycles());
    h.add(g.stallEvents());
    EXPECT_EQ(h.value(), 0x0a4f03d90c51c1e4ULL)
        << std::hex << "0x" << h.value();
}

} // namespace
} // namespace memory
} // namespace iraw
