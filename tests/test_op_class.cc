/** @file Unit tests for op classes and the latency table. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/op_class.hh"

namespace iraw {
namespace isa {
namespace {

TEST(OpClassTest, Predicates)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::IntAlu));
    EXPECT_TRUE(isControlOp(OpClass::Branch));
    EXPECT_TRUE(isControlOp(OpClass::Call));
    EXPECT_TRUE(isControlOp(OpClass::Return));
    EXPECT_FALSE(isControlOp(OpClass::Load));
    EXPECT_TRUE(isFpOp(OpClass::FpDiv));
    EXPECT_FALSE(isFpOp(OpClass::IntDiv));
}

TEST(OpClassTest, NamesAreDistinct)
{
    for (size_t a = 0; a < kNumOpClasses; ++a) {
        for (size_t b = a + 1; b < kNumOpClasses; ++b) {
            EXPECT_STRNE(opClassName(static_cast<OpClass>(a)),
                         opClassName(static_cast<OpClass>(b)));
        }
    }
}

TEST(LatencyTableTest, Defaults)
{
    LatencyTable t;
    EXPECT_EQ(t.latency(OpClass::IntAlu), 1u);
    EXPECT_EQ(t.latency(OpClass::Load), 3u);
    EXPECT_GT(t.latency(OpClass::IntDiv), 10u);
    EXPECT_GT(t.latency(OpClass::FpDiv),
              t.latency(OpClass::FpMul));
}

TEST(LatencyTableTest, Overrides)
{
    LatencyTable t;
    t.setLatency(OpClass::IntMul, 6);
    EXPECT_EQ(t.latency(OpClass::IntMul), 6u);
    EXPECT_THROW(t.setLatency(OpClass::IntMul, 0), FatalError);
}

TEST(LatencyTableTest, MaxLatency)
{
    LatencyTable t;
    EXPECT_EQ(t.maxLatency(), t.latency(OpClass::FpDiv));
}

} // namespace
} // namespace isa
} // namespace iraw
