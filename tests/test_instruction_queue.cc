/** @file Unit tests for the circular instruction queue. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "core/instruction_queue.hh"
#include "iraw/iq_gate.hh"

namespace iraw {
namespace core {
namespace {

/** @p n micro-ops, which IQ entries point at. */
std::vector<isa::MicroOp>
nops(uint64_t n)
{
    std::vector<isa::MicroOp> ops;
    ops.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
        ops.push_back(isa::makeNop(0x1000 + i * 4));
    return ops;
}

/** Allocate a tail entry for @p op. */
void
push(InstructionQueue &iq, const isa::MicroOp &op)
{
    iq.allocateBack().op = &op;
}

TEST(IqTest, FifoOrder)
{
    InstructionQueue iq(8);
    const std::vector<isa::MicroOp> ops = nops(3);
    for (const isa::MicroOp &op : ops)
        push(iq, op);
    EXPECT_EQ(iq.occupancy(), 3u);
    EXPECT_EQ(iq.at(0).op, &ops[0]);
    EXPECT_EQ(iq.at(2).op, &ops[2]);
    iq.popFront();
    EXPECT_EQ(iq.at(0).op, &ops[1]);
}

TEST(IqTest, FullAndEmpty)
{
    InstructionQueue iq(4);
    const std::vector<isa::MicroOp> ops = nops(5);
    EXPECT_TRUE(iq.empty());
    for (uint64_t i = 0; i < 4; ++i)
        push(iq, ops[i]);
    EXPECT_TRUE(iq.full());
    EXPECT_THROW(push(iq, ops[4]), PanicError);
    for (int i = 0; i < 4; ++i)
        iq.popFront();
    EXPECT_TRUE(iq.empty());
    EXPECT_THROW(iq.popFront(), PanicError);
}

TEST(IqTest, PopBackSquashesYoungest)
{
    InstructionQueue iq(8);
    const std::vector<isa::MicroOp> ops = nops(3);
    for (const isa::MicroOp &op : ops)
        push(iq, op);
    iq.popBack();
    EXPECT_EQ(iq.occupancy(), 2u);
    EXPECT_EQ(iq.at(1).op, &ops[1]);
}

TEST(IqTest, PointersMatchFigure9Occupancy)
{
    InstructionQueue iq(32);
    mechanism::IqOccupancyGate gate(32, 2, 2);
    // Random-ish workload of allocations and pops; the hardware
    // occupancy (from pointers) must always equal the software one.
    const isa::MicroOp nop = isa::makeNop(0x1000);
    auto check = [&]() {
        EXPECT_EQ(gate.occupancyFromPointers(iq.headPointer(),
                                             iq.tailPointer()),
                  iq.occupancy());
    };
    for (int round = 0; round < 200; ++round) {
        int allocs = (round * 7) % 3;
        for (int a = 0; a < allocs && !iq.full(); ++a)
            push(iq, nop);
        check();
        int pops = (round * 5) % 2;
        for (int p = 0; p < pops && !iq.empty(); ++p)
            iq.popFront();
        check();
        if (round % 13 == 0 && !iq.empty()) {
            iq.popBack();
            check();
        }
    }
}

TEST(IqTest, PointerWraparound)
{
    InstructionQueue iq(4);
    mechanism::IqOccupancyGate gate(4, 1, 1);
    const isa::MicroOp nop = isa::makeNop(0x1000);
    // Push/pop far past the pointer modulus.
    for (int i = 0; i < 50; ++i) {
        push(iq, nop);
        push(iq, nop);
        EXPECT_EQ(gate.occupancyFromPointers(iq.headPointer(),
                                             iq.tailPointer()),
                  2u);
        iq.popFront();
        iq.popFront();
    }
}

TEST(IqTest, ClearResets)
{
    InstructionQueue iq(8);
    const isa::MicroOp nop = isa::makeNop(0x1000);
    push(iq, nop);
    iq.clear();
    EXPECT_TRUE(iq.empty());
    EXPECT_EQ(iq.headPointer(), 0u);
    EXPECT_EQ(iq.tailPointer(), 0u);
}

TEST(IqTest, NonPowerOf2Rejected)
{
    EXPECT_THROW(InstructionQueue iq(12), FatalError);
}

} // namespace
} // namespace core
} // namespace iraw
