/** @file Unit tests for the BP corruption-window tracker (Sec 4.5). */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "fnv1a.hh"
#include "predictor/iraw_corruption.hh"

namespace iraw {
namespace predictor {
namespace {

TEST(Corruption, OnlyDirectionBitFlipsArm)
{
    CorruptionTracker t(1);
    t.noteUpdate(5, 100, /*flippedDirectionBit=*/false);
    EXPECT_FALSE(t.noteRead(5, 101));
    t.noteUpdate(5, 200, true);
    EXPECT_TRUE(t.noteRead(5, 201));
    EXPECT_EQ(t.conflicts(), 1u);
}

TEST(Corruption, WindowBoundsExact)
{
    CorruptionTracker t(2);
    t.noteUpdate(7, 100, true);
    EXPECT_FALSE(t.noteRead(7, 100)) << "same-cycle read sees the "
                                        "old stable value";
    EXPECT_TRUE(t.noteRead(7, 101));
    EXPECT_TRUE(t.noteRead(7, 102));
    EXPECT_FALSE(t.noteRead(7, 103));
}

TEST(Corruption, DifferentEntriesDoNotConflict)
{
    CorruptionTracker t(1);
    t.noteUpdate(1, 100, true);
    EXPECT_FALSE(t.noteRead(2, 101));
}

TEST(Corruption, DisabledTrackerNeverConflicts)
{
    CorruptionTracker t(0);
    t.noteUpdate(1, 100, true);
    EXPECT_FALSE(t.noteRead(1, 101));
    EXPECT_EQ(t.conflictRate(), 0.0);
}

TEST(Corruption, ConflictRateComputation)
{
    CorruptionTracker t(1);
    t.noteUpdate(1, 10, true);
    t.noteRead(1, 11); // conflict
    for (int i = 0; i < 9; ++i)
        t.noteRead(1, 100 + i);
    EXPECT_DOUBLE_EQ(t.conflictRate(), 0.1);
}

TEST(Corruption, RandomOpsMatchPinnedDigest)
{
    // Reads, updates (a third of them flipping the direction bit,
    // some landing before earlier ones) and N changes (0 included)
    // over a hot set of 64 entries and a tail of 4,096, pinned bit
    // for bit with every counter and the conflict rate.
    Pcg32 rng(31);
    CorruptionTracker t(2);
    Fnv1a h;
    uint64_t now = 1000;
    for (int i = 0; i < 200000; ++i) {
        now += rng.below(2);
        const uint32_t entry =
            rng.chance(0.9) ? rng.below(64) : rng.below(4096);
        const uint32_t op = rng.below(100);
        if (op == 0)
            t.setStabilizationCycles(rng.below(5));
        else if (op < 40)
            t.noteUpdate(entry, now + rng.below(4), rng.chance(0.3));
        else
            h.add(t.noteRead(entry, now));
    }
    h.add(t.reads());
    h.add(t.updates());
    h.add(t.conflicts());
    const double rate = t.conflictRate();
    uint64_t bits = 0;
    std::memcpy(&bits, &rate, sizeof bits);
    h.add(bits);
    EXPECT_EQ(h.value(), 0xd7aaefdb88da217bULL)
        << std::hex << "0x" << h.value();
}

} // namespace
} // namespace predictor
} // namespace iraw
