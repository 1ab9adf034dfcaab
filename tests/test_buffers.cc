/** @file Unit tests for the fill buffer and WCB/EB. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memory/buffers.hh"

namespace iraw {
namespace memory {
namespace {

TEST(FillBufferTest, AllocateTrackRetire)
{
    FillBuffer fb("fb", 2);
    EXPECT_FALSE(fb.contains(0x100));
    fb.allocate(0x100, 0, 50);
    EXPECT_TRUE(fb.contains(0x100));
    EXPECT_EQ(fb.readyCycle(0x100), 50u);
    EXPECT_EQ(fb.occupancy(), 1u);

    auto done = fb.retire(49);
    EXPECT_TRUE(done.empty());
    done = fb.retire(50);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].first, 0x100u);
    EXPECT_EQ(done[0].second, 50u);
    EXPECT_FALSE(fb.contains(0x100));
}

TEST(FillBufferTest, FullnessReflectsInFlightFills)
{
    FillBuffer fb("fb", 2);
    fb.allocate(0x100, 0, 50);
    fb.allocate(0x200, 0, 60);
    EXPECT_TRUE(fb.full(40));
    EXPECT_FALSE(fb.full(50)) << "a completed fill frees a slot";
    EXPECT_EQ(fb.earliestReady(), 50u);

    // allocate() agrees with full(): the completed fill's slot is
    // reused without a retire() first...
    fb.allocate(0x300, 50, 90);
    EXPECT_FALSE(fb.contains(0x100));
    EXPECT_TRUE(fb.contains(0x200));
    EXPECT_TRUE(fb.contains(0x300));
    EXPECT_TRUE(fb.full(55));
    // ...and with several completed, the earliest one goes.
    fb.allocate(0x400, 95, 120);
    EXPECT_FALSE(fb.contains(0x200));
    EXPECT_TRUE(fb.contains(0x300));
    EXPECT_EQ(fb.occupancy(), 2u);
}

TEST(FillBufferTest, RetireOrderedByCompletion)
{
    FillBuffer fb("fb", 4);
    fb.allocate(0x300, 0, 70);
    fb.allocate(0x100, 0, 50);
    fb.allocate(0x200, 0, 60);
    auto done = fb.retire(100);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].second, 50u);
    EXPECT_EQ(done[1].second, 60u);
    EXPECT_EQ(done[2].second, 70u);
}

TEST(FillBufferTest, DuplicateAllocationPanics)
{
    FillBuffer fb("fb", 2);
    fb.allocate(0x100, 0, 50);
    EXPECT_THROW(fb.allocate(0x100, 0, 60), PanicError);
}

TEST(FillBufferTest, OverflowPanics)
{
    FillBuffer fb("fb", 1);
    fb.allocate(0x100, 0, 50);
    EXPECT_THROW(fb.allocate(0x200, 0, 60), PanicError);
}

TEST(FillBufferTest, MergeCounter)
{
    FillBuffer fb("fb", 2);
    fb.noteMerge();
    fb.noteMerge();
    EXPECT_EQ(fb.mergedRequests(), 2u);
}

TEST(WcbTest, PushAndDrain)
{
    WriteCombiningBuffer wcb("wcb", 2, 10);
    EXPECT_EQ(wcb.push(0x100, 5), 5u);
    EXPECT_TRUE(wcb.contains(0x100));
    EXPECT_EQ(wcb.occupancy(), 1u);
    // Drains at 15: gone afterwards.
    EXPECT_FALSE(wcb.full(20));
    wcb.push(0x200, 20);
    EXPECT_FALSE(wcb.contains(0x100));
}

TEST(WcbTest, WriteCombiningMergesSameLine)
{
    WriteCombiningBuffer wcb("wcb", 1, 10);
    wcb.push(0x100, 0);
    // Same line again: merges, no stall even though buffer is full.
    EXPECT_EQ(wcb.push(0x100, 1), 1u);
    EXPECT_EQ(wcb.occupancy(), 1u);
}

TEST(WcbTest, FullBufferDelaysPush)
{
    WriteCombiningBuffer wcb("wcb", 1, 10);
    wcb.push(0x100, 0); // drains at 10
    Cycle when = wcb.push(0x200, 3);
    EXPECT_EQ(when, 10u);
    EXPECT_EQ(wcb.fullStalls(), 7u);
}

TEST(WcbTest, Validation)
{
    EXPECT_THROW(WriteCombiningBuffer("w", 0, 10), FatalError);
    EXPECT_THROW(WriteCombiningBuffer("w", 2, 0), FatalError);
    EXPECT_THROW(FillBuffer("f", 0), FatalError);
}

TEST(WcbTest, ResetClears)
{
    WriteCombiningBuffer wcb("wcb", 2, 10);
    wcb.push(0x100, 0);
    wcb.reset();
    EXPECT_EQ(wcb.occupancy(), 0u);
    EXPECT_EQ(wcb.pushes(), 0u);
}

} // namespace
} // namespace memory
} // namespace iraw
