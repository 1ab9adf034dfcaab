/** @file Unit tests for the Store Table (Sec. 4.4, Figure 10). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fnv1a.hh"
#include "iraw/stable.hh"

namespace iraw {
namespace mechanism {
namespace {

/** DL0-like geometry: 64B lines, 64 sets. */
StoreTable
makeTable(uint32_t entries = 4)
{
    StoreTable t(entries, 64, 64);
    t.setActiveEntries(entries);
    return t;
}

TEST(StoreTableTest, NoMatchIsTheCommonCase)
{
    StoreTable t = makeTable();
    t.noteStore(0x1000, 4, 100);
    // Different set, inside the window: no match.
    auto res = t.probe(0x2040, 4, 101, 1);
    EXPECT_EQ(res.match, StableMatch::None);
}

TEST(StoreTableTest, FullMatchForwardsData)
{
    StoreTable t = makeTable();
    t.noteStore(0x1000, 4, 100);
    auto res = t.probe(0x1000, 4, 101, 1);
    EXPECT_EQ(res.match, StableMatch::Full);
    EXPECT_GE(res.replayStores, 1u);
    EXPECT_EQ(t.fullMatches(), 1u);
}

TEST(StoreTableTest, PartialOverlapIsFullMatch)
{
    StoreTable t = makeTable();
    t.noteStore(0x1000, 8, 100);
    // A 4-byte load of the stored doubleword's upper half overlaps.
    auto res = t.probe(0x1004, 4, 101, 1);
    EXPECT_EQ(res.match, StableMatch::Full);
}

TEST(StoreTableTest, SetOnlyMatch)
{
    StoreTable t = makeTable();
    t.noteStore(0x1000, 4, 100);
    // Same DL0 set (addr/64 mod 64) but disjoint bytes: set-only.
    // 0x1000 -> line 0x40, set 0x40 & 63 = 0.  0x2000 -> line 0x80,
    // set 0x80 & 63 = 0 too? 0x80 & 63 = 0... pick 0x1000 + 64*64.
    auto res = t.probe(0x1000 + 64 * 64, 4, 101, 1);
    EXPECT_EQ(res.match, StableMatch::SetOnly);
    EXPECT_EQ(t.setMatches(), 1u);
}

TEST(StoreTableTest, WindowExpires)
{
    StoreTable t = makeTable();
    t.noteStore(0x1000, 4, 100);
    // Window N=1: cycle 101 conflicts, cycle 102 does not.
    EXPECT_EQ(t.probe(0x1000, 4, 101, 1).match, StableMatch::Full);
    EXPECT_EQ(t.probe(0x1000, 4, 102, 1).match, StableMatch::None);
    // Same-cycle probe sees the pre-store value: no conflict.
    t.noteStore(0x3000, 4, 200);
    EXPECT_EQ(t.probe(0x3000, 4, 200, 1).match, StableMatch::None);
}

TEST(StoreTableTest, ReplayCountsFromOldestMatch)
{
    StoreTable t = makeTable(4);
    // Four stores, all to the same set, in consecutive cycles.
    t.noteStore(0x1000, 4, 100);
    t.noteStore(0x1004, 4, 100);
    t.noteStore(0x1008, 4, 100);
    t.noteStore(0x100c, 4, 100);
    auto res = t.probe(0x1000, 4, 101, 2);
    EXPECT_EQ(res.match, StableMatch::Full);
    // Oldest matching entry is the first: all 4 replay.
    EXPECT_EQ(res.replayStores, 4u);
}

TEST(StoreTableTest, RoundRobinReplacement)
{
    StoreTable t = makeTable(2);
    t.noteStore(0x1000, 4, 100);
    t.noteStore(0x2000, 4, 101);
    t.noteStore(0x3000, 4, 102); // overwrites 0x1000's entry
    EXPECT_EQ(t.probe(0x1000, 4, 101, 4).match, StableMatch::None);
    EXPECT_EQ(t.probe(0x3000, 4, 103, 4).match, StableMatch::Full);
}

TEST(StoreTableTest, VccReconfigurationDisablesEntries)
{
    StoreTable t(4, 64, 64);
    t.setActiveEntries(2); // lower Vcc ceiling: N=2 with 1 store/cyc
    t.noteStore(0x1000, 4, 100);
    EXPECT_EQ(t.probe(0x1000, 4, 101, 1).match, StableMatch::Full);
    t.setActiveEntries(0); // IRAW off: table disabled and flushed
    EXPECT_EQ(t.probe(0x1000, 4, 101, 1).match, StableMatch::None);
    EXPECT_THROW(t.setActiveEntries(5), FatalError);
}

TEST(StoreTableTest, ShrinkKeepsTheNextStoreProbed)
{
    // Shrinking the active entries must wrap the round-robin cursor
    // into the new range: a store written at a slot past it would
    // never be probed, and a load inside its window not replayed.
    StoreTable t(4, 64, 64);
    t.setActiveEntries(3);
    t.noteStore(0x1000, 4, 10);
    t.noteStore(0x2000, 4, 11); // cursor now at slot 2
    t.setActiveEntries(2);
    t.noteStore(0x3000, 8, 20);
    auto res = t.probe(0x3000, 8, 21, 2);
    EXPECT_EQ(res.match, StableMatch::Full);
    EXPECT_EQ(res.replayStores, 1u);
}

TEST(StoreTableTest, DisabledTableIgnoresStores)
{
    StoreTable t(4, 64, 64);
    t.setActiveEntries(0);
    t.noteStore(0x1000, 4, 100);
    EXPECT_EQ(t.storesTracked(), 0u);
}

TEST(StoreTableTest, FlushClearsEntries)
{
    StoreTable t = makeTable();
    t.noteStore(0x1000, 4, 100);
    t.flush();
    EXPECT_EQ(t.probe(0x1000, 4, 101, 1).match, StableMatch::None);
}

TEST(StoreTableTest, LatchBitsAccounting)
{
    StoreTable t(2, 64, 64);
    EXPECT_EQ(t.latchBits(), 2u * (1 + 48 + 64 + 3));
}

TEST(StoreTableTest, GeometryValidation)
{
    EXPECT_THROW(StoreTable(0, 64, 64), FatalError);
    EXPECT_THROW(StoreTable(2, 60, 64), FatalError);
    EXPECT_THROW(StoreTable(2, 64, 60), FatalError);
}

TEST(StoreTableTest, RandomOpsMatchPinnedDigest)
{
    // Stores, probes with windows 0-6, flushes and active-entry
    // counts that grow and shrink (0 included), over 256 lines in 64
    // sets so full, set-only and no matches all occur, pinned bit for
    // bit.  A few stores are noted behind the newest one.
    Pcg32 rng(31);
    StoreTable t(12, 64, 64);
    t.setActiveEntries(4);
    Fnv1a h;
    uint64_t now = 1000;
    for (int i = 0; i < 200000; ++i) {
        now += rng.below(3);
        const uint32_t op = rng.below(100);
        const auto size = static_cast<uint8_t>(1u << rng.below(4));
        const uint64_t addr = 0x10000 + rng.below(256) * 64 +
                              (rng.below(64) & ~(size - 1u));
        if (op == 0) {
            t.setActiveEntries(rng.below(13));
        } else if (op == 1) {
            t.flush();
        } else if (op < 35) {
            t.noteStore(addr, size, op < 4 ? now - rng.below(8) : now);
        } else {
            const StableProbeResult r =
                t.probe(addr, size, now + rng.below(4), rng.below(7));
            h.add(static_cast<uint64_t>(r.match));
            h.add(r.replayStores);
        }
    }
    h.add(t.probes());
    h.add(t.fullMatches());
    h.add(t.setMatches());
    h.add(t.storesTracked());
    EXPECT_EQ(h.value(), 0x63a871730c9d9902ULL)
        << std::hex << "0x" << h.value();
}

} // namespace
} // namespace mechanism
} // namespace iraw
