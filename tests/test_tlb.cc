/** @file Unit tests for the TLB model. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memory/tlb.hh"

namespace iraw {
namespace memory {
namespace {

TlbParams
smallTlb()
{
    TlbParams p;
    p.name = "t";
    p.entries = 4;
    p.pageBytes = 4096;
    return p;
}

TEST(TlbTest, MissFillHit)
{
    Tlb t(smallTlb());
    EXPECT_FALSE(t.lookup(0x1000));
    t.fill(0x1000);
    EXPECT_TRUE(t.lookup(0x1000));
    EXPECT_TRUE(t.lookup(0x1fff)) << "same page";
    EXPECT_FALSE(t.lookup(0x2000)) << "next page";
}

TEST(TlbTest, LruReplacement)
{
    Tlb t(smallTlb());
    for (uint64_t p = 0; p < 4; ++p)
        t.fill(p * 4096);
    EXPECT_TRUE(t.lookup(0)); // page 0 now MRU
    t.fill(4 * 4096);         // evicts page 1 (LRU)
    EXPECT_TRUE(t.lookup(0));
    EXPECT_FALSE(t.lookup(1 * 4096));
    EXPECT_TRUE(t.lookup(4 * 4096));
}

TEST(TlbTest, DoubleFillIsIdempotent)
{
    Tlb t(smallTlb());
    t.fill(0x1000);
    t.fill(0x1000);
    t.fill(0x2000);
    t.fill(0x3000);
    t.fill(0x4000);
    EXPECT_TRUE(t.lookup(0x1000)); // not duplicated, not evicted
}

TEST(TlbTest, Stats)
{
    Tlb t(smallTlb());
    t.lookup(0x1000);
    t.fill(0x1000);
    t.lookup(0x1000);
    EXPECT_EQ(t.accesses(), 2u);
    EXPECT_EQ(t.misses(), 1u);
    EXPECT_DOUBLE_EQ(t.missRate(), 0.5);
}

TEST(TlbTest, Validation)
{
    TlbParams p = smallTlb();
    p.entries = 0;
    EXPECT_THROW(Tlb t(p), FatalError);
    p = smallTlb();
    p.pageBytes = 0;
    EXPECT_THROW(Tlb t(p), FatalError);
}

TEST(TlbTest, TotalBitsPositive)
{
    EXPECT_GT(smallTlb().totalBits(), 0u);
}

} // namespace
} // namespace memory
} // namespace iraw
