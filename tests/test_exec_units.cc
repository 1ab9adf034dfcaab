/** @file Unit tests for the functional-unit pool. */

#include <gtest/gtest.h>

#include "core/exec_units.hh"

namespace iraw {
namespace core {
namespace {

using isa::OpClass;

TEST(ExecUnits, PerCycleSlotLimits)
{
    CoreConfig cfg; // 2 ALUs, 1 mem port, 1 FP unit
    ExecUnits units(cfg);
    units.newCycle();
    EXPECT_TRUE(units.canIssue(OpClass::IntAlu, 10));
    units.issue(OpClass::IntAlu, 10);
    EXPECT_TRUE(units.canIssue(OpClass::IntAlu, 10));
    units.issue(OpClass::IntAlu, 10);
    EXPECT_FALSE(units.canIssue(OpClass::IntAlu, 10))
        << "both ALUs consumed";
    // The mem port is independent of the ALUs.
    EXPECT_TRUE(units.canIssue(OpClass::Load, 10));
    units.issue(OpClass::Load, 10);
    EXPECT_FALSE(units.canIssue(OpClass::Store, 10));
}

TEST(ExecUnits, NewCycleRestoresSlots)
{
    CoreConfig cfg;
    ExecUnits units(cfg);
    units.newCycle();
    units.issue(OpClass::IntAlu, 10);
    units.issue(OpClass::IntAlu, 10);
    units.newCycle();
    EXPECT_TRUE(units.canIssue(OpClass::IntAlu, 11));
}

TEST(ExecUnits, UnpipelinedDivBlocksItsUnit)
{
    CoreConfig cfg;
    ExecUnits units(cfg);
    units.newCycle();
    EXPECT_TRUE(units.canIssue(OpClass::IntDiv, 10));
    units.issue(OpClass::IntDiv, 10);
    uint32_t divLat = cfg.latencies.latency(OpClass::IntDiv);
    units.newCycle();
    EXPECT_FALSE(units.canIssue(OpClass::IntDiv, 11));
    EXPECT_FALSE(units.canIssue(OpClass::IntDiv, 10 + divLat - 1));
    EXPECT_TRUE(units.canIssue(OpClass::IntDiv, 10 + divLat));
    // But plain ALU work proceeds on the other ALU.
    EXPECT_TRUE(units.canIssue(OpClass::IntAlu, 11));
}

TEST(ExecUnits, FpDivIndependentOfIntDiv)
{
    CoreConfig cfg;
    ExecUnits units(cfg);
    units.newCycle();
    units.issue(OpClass::IntDiv, 10);
    units.newCycle();
    EXPECT_TRUE(units.canIssue(OpClass::FpDiv, 11));
    units.issue(OpClass::FpDiv, 11);
    units.newCycle();
    EXPECT_FALSE(units.canIssue(OpClass::FpAdd, 12))
        << "FP unit busy with the divide";
}

TEST(ExecUnits, BranchesUseAluSlots)
{
    CoreConfig cfg;
    ExecUnits units(cfg);
    units.newCycle();
    units.issue(OpClass::Branch, 10);
    units.issue(OpClass::Call, 10);
    EXPECT_FALSE(units.canIssue(OpClass::IntAlu, 10));
}

} // namespace
} // namespace core
} // namespace iraw
