/** @file Unit tests for the MicroOp record. */

#include <gtest/gtest.h>

#include "isa/microop.hh"

namespace iraw {
namespace isa {
namespace {

MicroOp
aluOp()
{
    MicroOp op;
    op.pc = 0x400000;
    op.opClass = OpClass::IntAlu;
    op.dst = 3;
    op.src1 = 1;
    op.src2 = 2;
    return op;
}

TEST(MicroOpTest, OperandPredicates)
{
    MicroOp op = aluOp();
    EXPECT_TRUE(op.hasDst());
    EXPECT_TRUE(op.hasSrc1());
    EXPECT_TRUE(op.hasSrc2());
    EXPECT_EQ(op.numSrcs(), 2u);
    op.src2 = kInvalidReg;
    EXPECT_EQ(op.numSrcs(), 1u);
}

TEST(MicroOpTest, WellFormedAlu)
{
    EXPECT_TRUE(aluOp().wellFormed());
}

TEST(MicroOpTest, Src2WithoutSrc1IsMalformed)
{
    MicroOp op = aluOp();
    op.src1 = kInvalidReg;
    EXPECT_FALSE(op.wellFormed());
}

TEST(MicroOpTest, UnknownClassIsMalformed)
{
    MicroOp op = aluOp();
    op.opClass = OpClass::NumClasses;
    EXPECT_FALSE(op.wellFormed());
    // The largest class the 4-bit field holds.
    op.opClass = static_cast<OpClass>(15);
    EXPECT_FALSE(op.wellFormed());
}

TEST(MicroOpTest, LoadRules)
{
    MicroOp op;
    op.opClass = OpClass::Load;
    op.src1 = 1;
    op.dst = 2;
    op.memAddr = 0x1000;
    op.memSize = 4;
    EXPECT_TRUE(op.wellFormed());

    op.memSize = 3; // not a power-of-two size
    EXPECT_FALSE(op.wellFormed());

    op.memSize = 8;
    op.memAddr = 0x1004; // misaligned for 8B
    EXPECT_FALSE(op.wellFormed());

    op.memAddr = 0x1008;
    op.dst = kInvalidReg; // load without destination
    EXPECT_FALSE(op.wellFormed());
}

TEST(MicroOpTest, StoreRules)
{
    MicroOp op;
    op.opClass = OpClass::Store;
    op.src1 = 1;
    op.src2 = 2;
    op.memAddr = 0x2000;
    op.memSize = 4;
    EXPECT_TRUE(op.wellFormed());
    op.dst = 5; // stores must not write a register
    EXPECT_FALSE(op.wellFormed());
}

TEST(MicroOpTest, NonMemWithMemSizeMalformed)
{
    MicroOp op = aluOp();
    op.memSize = 4;
    EXPECT_FALSE(op.wellFormed());
}

TEST(MicroOpTest, TakenNonBranchMalformed)
{
    MicroOp op = aluOp();
    op.taken = true;
    EXPECT_FALSE(op.wellFormed());
}

TEST(MicroOpTest, NopFactory)
{
    MicroOp nop = makeNop(0x1234);
    EXPECT_TRUE(nop.isNop());
    EXPECT_TRUE(nop.wellFormed());
    EXPECT_EQ(nop.pc, 0x1234u);
    EXPECT_FALSE(nop.hasDst());
}

TEST(MicroOpTest, ToStringMentionsClassAndRegs)
{
    std::string s = aluOp().toString();
    EXPECT_NE(s.find("IntAlu"), std::string::npos);
    EXPECT_NE(s.find("r3"), std::string::npos);
    EXPECT_NE(s.find("r1"), std::string::npos);
}

TEST(RegistersTest, Banks)
{
    EXPECT_TRUE(isIntReg(0));
    EXPECT_TRUE(isIntReg(15));
    EXPECT_FALSE(isIntReg(16));
    EXPECT_TRUE(isFpReg(16));
    EXPECT_TRUE(isFpReg(31));
    EXPECT_FALSE(isFpReg(32));
    EXPECT_FALSE(isValidReg(kInvalidReg));
    EXPECT_EQ(kFirstFpReg, 16);
}

} // namespace
} // namespace isa
} // namespace iraw
