/** @file Integration tests for the composed memory hierarchy. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memory/hierarchy.hh"

namespace iraw {
namespace memory {
namespace {

MemoryConfig
testConfig()
{
    MemoryConfig cfg;
    // Small caches so misses are easy to provoke.
    cfg.il0 = CacheParams{"il0", 4 * 1024, 2, 64};
    cfg.dl0 = CacheParams{"dl0", 4 * 1024, 2, 64};
    cfg.ul1 = CacheParams{"ul1", 64 * 1024, 4, 64};
    return cfg;
}

TEST(Hierarchy, ColdLoadGoesToDram)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(100);
    auto res = mem.dataLoad(0x10000, 10);
    EXPECT_FALSE(res.l0Hit);
    EXPECT_FALSE(res.ul1Hit);
    // TLB walk + UL1 latency + DRAM.
    EXPECT_GE(res.readyCycle,
              10 + mem.config().ul1HitLatency + 100);
    EXPECT_TRUE(res.tlbMiss);
}

TEST(Hierarchy, SecondAccessHitsAfterFill)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(100);
    auto miss = mem.dataLoad(0x10000, 10);
    auto hit = mem.dataLoad(0x10000, miss.readyCycle + 10);
    EXPECT_TRUE(hit.l0Hit);
    EXPECT_EQ(hit.readyCycle, miss.readyCycle + 10);
}

TEST(Hierarchy, Ul1HitIsFasterThanDram)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(100);
    // Load line A, then evict it from DL0 with conflicting lines;
    // the re-access hits UL1.
    auto first = mem.dataLoad(0x10000, 10);
    Cycle t = first.readyCycle + 10;
    // DL0 is 4KB/2-way/64B = 32 sets; 0x10000 + k*0x800 conflicts.
    for (int k = 1; k <= 2; ++k) {
        auto r = mem.dataLoad(0x10000 + k * 0x800ull, t);
        t = r.readyCycle + 10;
    }
    auto again = mem.dataLoad(0x10000, t);
    EXPECT_FALSE(again.l0Hit);
    EXPECT_TRUE(again.ul1Hit);
    EXPECT_LE(again.readyCycle,
              t + mem.config().ul1HitLatency + 5);
}

TEST(Hierarchy, FillBufferMergesSameLine)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(100);
    auto first = mem.dataLoad(0x20000, 10);
    auto merged = mem.dataLoad(0x20008, 12);
    EXPECT_TRUE(merged.fbMerge);
    EXPECT_EQ(merged.readyCycle, first.readyCycle);
}

TEST(Hierarchy, InstFetchPath)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(80);
    auto miss = mem.instFetch(0x400000, 5);
    EXPECT_FALSE(miss.l0Hit);
    auto hit = mem.instFetch(0x400004, miss.readyCycle + 1);
    EXPECT_TRUE(hit.l0Hit);
}

TEST(Hierarchy, StoreWriteAllocates)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(50);
    auto st = mem.dataStore(0x30000, 10);
    EXPECT_FALSE(st.l0Hit);
    // Store commit is not blocked by the fill.
    EXPECT_EQ(st.readyCycle, st.readyCycle);
    // After the fill lands, the line is resident and dirty: evicting
    // it later must produce WCB traffic.  Touch it when ready.
    auto later = mem.dataLoad(0x30000, 500);
    EXPECT_TRUE(later.l0Hit);
}

TEST(Hierarchy, IrawFillStallsSubsequentAccess)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(50);
    mem.setStabilizationCycles(1);
    auto miss = mem.dataLoad(0x40000, 10);
    // Access the moment after the fill lands: the DL0 guard must add
    // a stall (Sec. 4.3).
    auto just = mem.dataLoad(0x40040, miss.readyCycle + 1);
    EXPECT_GT(just.irawStallCycles, 0u);
    EXPECT_GT(mem.dl0Guard().stallCycles(), 0u);
}

TEST(Hierarchy, NoIrawStallsWhenDisabled)
{
    MemoryHierarchy mem(testConfig());
    mem.setDramLatencyCycles(50);
    mem.setStabilizationCycles(0);
    Cycle t = 10;
    for (int i = 0; i < 50; ++i) {
        auto r = mem.dataLoad(0x50000 + i * 64ull, t);
        t = r.readyCycle + 1;
    }
    EXPECT_EQ(mem.totalIrawStallCycles(), 0u);
}

TEST(Hierarchy, WcbForwardsPendingVictim)
{
    MemoryConfig cfg = testConfig();
    cfg.wcbDrainLatency = 1000; // keep victims around
    MemoryHierarchy mem(cfg);
    mem.setDramLatencyCycles(50);
    // Dirty a line, evict it via conflicting fills, then re-access:
    // the data must come from the WCB, not DRAM.
    auto st = mem.dataStore(0x60000, 10);
    (void)st;
    Cycle t = 300;
    for (int k = 1; k <= 2; ++k) {
        auto r = mem.dataLoad(0x60000 + k * 0x800ull, t);
        t = r.readyCycle + 1;
    }
    auto back = mem.dataLoad(0x60000, t + 100);
    EXPECT_TRUE(back.wcbForward);
    EXPECT_LE(back.readyCycle,
              t + 100 + cfg.wcbForwardLatency + 2);
}

TEST(Hierarchy, TotalSramBitsSane)
{
    MemoryHierarchy mem(testConfig());
    // At least the raw data bits of all three caches.
    uint64_t dataBits = (4 + 4 + 64) * 1024ull * 8;
    EXPECT_GT(mem.totalSramBits(), dataBits);
}

TEST(Hierarchy, ConfigValidation)
{
    MemoryConfig cfg = testConfig();
    cfg.dl0.lineBytes = 32; // mismatched line sizes
    EXPECT_THROW(MemoryHierarchy mem(cfg), FatalError);
}

} // namespace
} // namespace memory
} // namespace iraw
