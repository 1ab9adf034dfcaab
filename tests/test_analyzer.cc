/** @file Unit tests for the trace analyzer. */

#include <gtest/gtest.h>

#include <vector>

#include "trace/analyzer.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace trace {
namespace {

/** A resident trace of exactly @p ops. */
TraceBuffer
bufferOf(std::vector<isa::MicroOp> ops)
{
    return TraceBuffer("vector", std::move(ops));
}

isa::MicroOp
alu(uint64_t seq, isa::RegId dst, isa::RegId src)
{
    isa::MicroOp op;
    op.pc = 0x400000 + seq * 4;
    op.opClass = isa::OpClass::IntAlu;
    op.dst = dst;
    op.src1 = src;
    return op;
}

TEST(Analyzer, CountsClassesAndDistances)
{
    std::vector<isa::MicroOp> ops;
    ops.push_back(alu(1, 1, 0));
    ops.push_back(alu(2, 2, 1)); // distance 1
    ops.push_back(alu(3, 3, 1)); // distance 2
    isa::MicroOp ld;
    ld.pc = 0x400010;
    ld.opClass = isa::OpClass::Load;
    ld.src1 = 2;
    ld.dst = 4;
    ld.memAddr = 0x1000;
    ld.memSize = 4;
    ops.push_back(ld); // distance 2 (src 2 written at idx 1)

    TraceStats stats = TraceAnalyzer::analyze(bufferOf(ops), 100);
    EXPECT_EQ(stats.instructions, 4u);
    EXPECT_EQ(stats.classCounts[static_cast<size_t>(
                  isa::OpClass::IntAlu)],
              3u);
    EXPECT_EQ(stats.memOps, 1u);
    EXPECT_EQ(stats.distinctLines, 1u);
    // Distances observed: 1, 2, 2 (src 0 of the first op was never
    // written, so it contributes no sample).
    EXPECT_EQ(stats.depSamples, 3u);
    EXPECT_NEAR(stats.meanDepDistance, (1 + 2 + 2) / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.depDistanceCdf(1), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(stats.depDistanceCdf(2), 1.0);
}

TEST(Analyzer, BranchAccounting)
{
    std::vector<isa::MicroOp> ops;
    for (int i = 0; i < 4; ++i) {
        isa::MicroOp br;
        br.pc = 0x400000;
        br.opClass = isa::OpClass::Branch;
        br.src1 = 1;
        br.taken = i % 2 == 0;
        br.setTarget(0x400100);
        ops.push_back(br);
    }
    TraceStats stats = TraceAnalyzer::analyze(bufferOf(ops), 100);
    EXPECT_EQ(stats.branches, 4u);
    EXPECT_EQ(stats.takenBranches, 2u);
    EXPECT_DOUBLE_EQ(stats.takenFraction(), 0.5);
    EXPECT_EQ(stats.distinctPcs, 1u);
}

TEST(Analyzer, CallReturnGapOnlyWhenAPairIsSeen)
{
    // A return with no call before it, then a call left open: no
    // pair, so no gap (not a gap of 0).
    std::vector<isa::MicroOp> ops(4);
    ops[0].opClass = isa::OpClass::Return;
    ops[1].opClass = isa::OpClass::Call;
    TraceStats stats = TraceAnalyzer::analyze(bufferOf(ops), 100);
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.returns, 1u);
    EXPECT_FALSE(stats.minCallReturnGap);
    // Close the call three ops later.
    ops[3].opClass = isa::OpClass::Return;
    stats = TraceAnalyzer::analyze(bufferOf(ops), 100);
    ASSERT_TRUE(stats.minCallReturnGap);
    EXPECT_EQ(*stats.minCallReturnGap, 2u);
}

TEST(Analyzer, MaxInstsLimits)
{
    TraceBufferPtr trace =
        materializeSynthetic(profileByName("kernels"), 1, 2000);
    TraceStats stats = TraceAnalyzer::analyze(*trace, 1234);
    EXPECT_EQ(stats.instructions, 1234u);
}

TEST(Analyzer, EmptySourceGivesZeroes)
{
    TraceStats stats = TraceAnalyzer::analyze(bufferOf({}), 10);
    EXPECT_EQ(stats.instructions, 0u);
    EXPECT_DOUBLE_EQ(stats.meanDepDistance, 0.0);
    EXPECT_DOUBLE_EQ(stats.takenFraction(), 0.0);
    EXPECT_DOUBLE_EQ(stats.depDistanceCdf(10), 0.0);
}

} // namespace
} // namespace trace
} // namespace iraw
