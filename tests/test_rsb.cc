/** @file Unit tests for the return stack buffer. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "predictor/rsb.hh"

namespace iraw {
namespace predictor {
namespace {

TEST(Rsb, LifoOrder)
{
    ReturnStackBuffer rsb(8);
    rsb.push(0x100, 1);
    rsb.push(0x200, 2);
    auto a = rsb.pop(10, 0);
    auto b = rsb.pop(11, 0);
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.target, 0x200u);
    EXPECT_EQ(b.target, 0x100u);
}

TEST(Rsb, EmptyPopInvalid)
{
    ReturnStackBuffer rsb(4);
    auto r = rsb.pop(1, 0);
    EXPECT_FALSE(r.valid);
}

TEST(Rsb, OverflowWrapsOldestEntries)
{
    ReturnStackBuffer rsb(2);
    rsb.push(0x1, 1);
    rsb.push(0x2, 2);
    rsb.push(0x3, 3); // overwrites 0x1
    EXPECT_EQ(rsb.pop(10, 0).target, 0x3u);
    EXPECT_EQ(rsb.pop(11, 0).target, 0x2u);
    // Third pop: occupancy exhausted.
    EXPECT_FALSE(rsb.pop(12, 0).valid);
}

TEST(Rsb, IrawWindowDetection)
{
    ReturnStackBuffer rsb(8);
    rsb.push(0x100, 100);
    // Pop within the stabilization window (N=2): flagged.
    auto inWindow = rsb.pop(101, 2);
    EXPECT_TRUE(inWindow.valid);
    EXPECT_TRUE(inWindow.inIrawWindow);
    EXPECT_EQ(rsb.irawWindowPops(), 1u);

    rsb.push(0x200, 100);
    auto outside = rsb.pop(103, 2);
    EXPECT_FALSE(outside.inIrawWindow);

    rsb.push(0x300, 100);
    auto disabled = rsb.pop(101, 0);
    EXPECT_FALSE(disabled.inIrawWindow);
}

TEST(Rsb, StatsAccumulate)
{
    ReturnStackBuffer rsb(4);
    rsb.push(0x1, 1);
    rsb.pop(2, 0);
    rsb.pop(3, 0);
    EXPECT_EQ(rsb.pushes(), 1u);
    EXPECT_EQ(rsb.pops(), 2u);
}

TEST(Rsb, ZeroDepthRejected)
{
    EXPECT_THROW(ReturnStackBuffer rsb(0), FatalError);
}

TEST(Rsb, TotalBitsScalesWithDepth)
{
    EXPECT_EQ(ReturnStackBuffer(8).totalBits(), 8u * 48u);
}

} // namespace
} // namespace predictor
} // namespace iraw
