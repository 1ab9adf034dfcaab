/** @file Unit tests for the TLB model. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fnv1a.hh"
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

TEST(TlbTest, RandomOpsMatchPinnedDigest)
{
    // Lookups over a hot set of pages and a long tail, a fill after
    // every miss and a few racing refills of a present page, on a
    // 32-entry TLB with 4 KB pages and a 5-entry one with 3,000-byte
    // pages: every hit, every returned slot and both counters are
    // pinned bit for bit, so the victim order cannot drift.
    Fnv1a h;
    for (const auto &[entries, pageBytes] :
         {std::pair<uint32_t, uint32_t>{32, 4096}, {5, 3000}}) {
        TlbParams p;
        p.entries = entries;
        p.pageBytes = pageBytes;
        Tlb t(p);
        Pcg32 rng(31);
        for (int i = 0; i < 100000; ++i) {
            const uint64_t page =
                rng.chance(0.8) ? rng.below(24) : rng.below(200);
            const uint64_t addr = page * pageBytes + rng.below(pageBytes);
            const bool hit = t.lookup(addr);
            h.add(hit);
            if (!hit || rng.chance(0.01))
                h.add(t.fill(addr));
        }
        h.add(t.accesses());
        h.add(t.misses());
    }
    EXPECT_EQ(h.value(), 0xa1eb47ba4d5b3095ULL)
        << std::hex << "0x" << h.value();
}

} // namespace
} // namespace memory
} // namespace iraw
