/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memory/cache.hh"

namespace iraw {
namespace memory {
namespace {

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 1024;
    p.assoc = 2;
    p.lineBytes = 64; // 8 sets
    return p;
}

TEST(CacheTest, MissThenFillThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false));
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103f, false)) << "same line";
    EXPECT_FALSE(c.access(0x1040, false)) << "next line";
}

TEST(CacheTest, LruEviction)
{
    Cache c(smallCache()); // 2-way, 8 sets, set stride 512B
    // Three lines mapping to the same set.
    uint64_t a = 0x0000, b = 0x0200, d = 0x0400;
    c.fill(a);
    c.fill(b);
    EXPECT_TRUE(c.access(a, false)); // a most recently used
    Victim v = c.fill(d);            // evicts b (LRU)
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(CacheTest, DirtyVictimReported)
{
    Cache c(smallCache());
    c.fill(0x0000);
    EXPECT_TRUE(c.access(0x0000, true)); // dirty it
    c.fill(0x0200);
    Victim v = c.fill(0x0400);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.lineAddr, 0x0000u);
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(CacheTest, FillWithDirtyFlag)
{
    Cache c(smallCache());
    c.fill(0x0000, true);
    c.fill(0x0200);
    Victim v = c.fill(0x0400);
    EXPECT_TRUE(v.dirty);
}

TEST(CacheTest, RefillOfResidentLineKeepsState)
{
    Cache c(smallCache());
    c.fill(0x0000);
    c.access(0x0000, true);
    Victim v = c.fill(0x0000); // refill, no eviction
    EXPECT_FALSE(v.valid);
    c.fill(0x0200);
    Victim v2 = c.fill(0x0400);
    EXPECT_TRUE(v2.dirty) << "dirty bit must survive refill";
}

TEST(CacheTest, StatsTrack)
{
    Cache c(smallCache());
    c.access(0x0, false);
    c.fill(0x0);
    c.access(0x0, false);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.fills(), 1u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(CacheTest, LineAddrMasksOffset)
{
    Cache c(smallCache());
    EXPECT_EQ(c.lineAddr(0x1234), 0x1200u);
}

TEST(CacheTest, ConfigValidation)
{
    CacheParams p = smallCache();
    p.lineBytes = 48;
    EXPECT_THROW(Cache c(p), FatalError);
    p = smallCache();
    p.assoc = 0;
    EXPECT_THROW(Cache c(p), FatalError);
    p = smallCache();
    p.sizeBytes = 1000; // not divisible
    EXPECT_THROW(Cache c(p), FatalError);
}

TEST(CacheTest, TotalBitsIncludesTagOverhead)
{
    CacheParams p = smallCache();
    EXPECT_GT(p.totalBits(), p.sizeBytes * 8);
}

/** Property: a direct-mapped cache of N lines holds exactly the last
 *  N distinct lines of a strided scan. */
class CacheScan : public ::testing::TestWithParam<int>
{};

TEST_P(CacheScan, FullyAssocHoldsMostRecent)
{
    CacheParams p;
    p.sizeBytes = 512;
    p.assoc = 8;
    p.lineBytes = 64; // fully associative: 1 set, 8 ways
    Cache c(p);
    int lines = GetParam();
    for (int i = 0; i < lines; ++i)
        c.fill(static_cast<uint64_t>(i) * 64);
    // The 8 most recent lines (or all, if fewer) must be resident.
    int start = std::max(0, lines - 8);
    for (int i = start; i < lines; ++i)
        EXPECT_TRUE(c.probe(static_cast<uint64_t>(i) * 64))
            << "line " << i;
    for (int i = 0; i < start; ++i)
        EXPECT_FALSE(c.probe(static_cast<uint64_t>(i) * 64))
            << "line " << i;
}

INSTANTIATE_TEST_SUITE_P(Lengths, CacheScan,
                         ::testing::Values(1, 4, 8, 9, 16, 64));

} // namespace
} // namespace memory
} // namespace iraw
