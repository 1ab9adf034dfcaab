/** @file Unit tests for the BP corruption-window tracker (Sec 4.5). */

#include <gtest/gtest.h>

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

} // namespace
} // namespace predictor
} // namespace iraw
