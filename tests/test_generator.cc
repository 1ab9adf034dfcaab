/** @file Unit tests for the synthetic trace generator. */

#include <gtest/gtest.h>

#include <map>

#include "trace/analyzer.hh"
#include "trace/generator.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace trace {
namespace {

TEST(Generator, DeterministicPerSeed)
{
    SyntheticTraceGenerator a(profileByName("spec2006int"), 42);
    SyntheticTraceGenerator b(profileByName("spec2006int"), 42);
    for (int i = 0; i < 2000; ++i) {
        auto oa = a.next();
        auto ob = b.next();
        ASSERT_TRUE(oa && ob);
        EXPECT_EQ(oa->pc, ob->pc);
        EXPECT_EQ(oa->opClass, ob->opClass);
        EXPECT_EQ(oa->memAddr, ob->memAddr);
        EXPECT_EQ(oa->taken, ob->taken);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    SyntheticTraceGenerator a(profileByName("spec2006int"), 1);
    SyntheticTraceGenerator b(profileByName("spec2006int"), 2);
    int diffs = 0;
    for (int i = 0; i < 500; ++i) {
        auto oa = a.next();
        auto ob = b.next();
        if (oa->pc != ob->pc || oa->opClass != ob->opClass)
            ++diffs;
    }
    EXPECT_GT(diffs, 0);
}

TEST(Generator, RespectsMaxInsts)
{
    SyntheticTraceGenerator g(profileByName("kernels"), 1, 100);
    uint64_t n = 0;
    while (g.next())
        ++n;
    EXPECT_EQ(n, 100u);
    EXPECT_FALSE(g.next().has_value());
}

TEST(Generator, AllOpsWellFormed)
{
    for (const auto &profile : builtinProfiles()) {
        SyntheticTraceGenerator g(profile, 3);
        for (int i = 0; i < 3000; ++i) {
            auto op = g.next();
            ASSERT_TRUE(op);
            EXPECT_TRUE(op->wellFormed())
                << profile.name << ": " << op->toString();
        }
    }
}

TEST(Generator, SequenceNumbersAreSequential)
{
    SyntheticTraceGenerator g(profileByName("office"), 5);
    for (uint64_t i = 1; i <= 500; ++i)
        EXPECT_EQ(g.next()->seqNum, i);
}

TEST(Generator, MixRoughlyMatchesProfile)
{
    const auto &p = profileByName("spec2006int");
    TraceStats stats = TraceAnalyzer::analyze(
        *materializeSynthetic(p, 11, 60000), 60000);
    // Dynamic mix wanders from the static mix (loops), but loads
    // and branches must be in a sane band.
    double loadFrac = stats.classFraction(isa::OpClass::Load);
    EXPECT_GT(loadFrac, 0.10);
    EXPECT_LT(loadFrac, 0.45);
    double branchFrac = stats.classFraction(isa::OpClass::Branch);
    EXPECT_GT(branchFrac, 0.05);
    EXPECT_LT(branchFrac, 0.40);
    // An FP-free profile emits no FP work.
    EXPECT_EQ(stats.classCounts[static_cast<size_t>(
                  isa::OpClass::FpAdd)],
              0u);
}

TEST(Generator, CallsAndReturnsBalance)
{
    TraceStats stats = TraceAnalyzer::analyze(
        *materializeSynthetic(profileByName("office"), 13, 50000),
        50000);
    ASSERT_GT(stats.calls, 50u);
    // Returns only execute when matched with a call.
    EXPECT_LE(stats.returns, stats.calls);
    EXPECT_GT(stats.returns, stats.calls / 2);
    // Sec. 4.5: no pathologically short functions.
    EXPECT_GE(stats.minCallReturnGap,
              profileByName("office").minFunctionBody);
}

TEST(Generator, MemoryAddressesInsideFootprint)
{
    const auto &p = profileByName("spec2000int");
    SyntheticTraceGenerator g(p, 17);
    uint64_t lo = SyntheticTraceGenerator::kDataBase;
    uint64_t hi = lo + (1ULL << p.footprintLog2);
    for (int i = 0; i < 20000; ++i) {
        auto op = g.next();
        if (isMemOp(op->opClass)) {
            EXPECT_GE(op->memAddr, lo);
            EXPECT_LT(op->memAddr, hi);
        }
    }
}

TEST(Generator, DependencyDistancesAreTight)
{
    // The profiles are tuned for close producer-consumer pairs (the
    // knob behind the paper's 13.2% delayed instructions).
    TraceStats stats = TraceAnalyzer::analyze(
        *materializeSynthetic(profileByName("spec2006int"), 19, 40000),
        40000);
    EXPECT_GT(stats.depDistanceCdf(4), 0.4);
    EXPECT_GT(stats.meanDepDistance, 1.0);
}

TEST(Generator, BranchesHavePcCorrelatedBias)
{
    // Re-executions of the same branch PC should mostly agree in
    // direction (strongly biased sites dominate).
    SyntheticTraceGenerator g(profileByName("kernels"), 23);
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> perPc;
    for (int i = 0; i < 50000; ++i) {
        auto op = g.next();
        if (op->opClass == isa::OpClass::Branch) {
            auto &[taken, total] = perPc[op->pc];
            taken += op->taken ? 1 : 0;
            ++total;
        }
    }
    uint64_t biasedPcs = 0, hotPcs = 0;
    for (auto &[pc, tt] : perPc) {
        auto [taken, total] = tt;
        if (total < 20)
            continue;
        ++hotPcs;
        double frac = static_cast<double>(taken) / total;
        if (frac < 0.2 || frac > 0.8)
            ++biasedPcs;
    }
    ASSERT_GT(hotPcs, 2u);
    EXPECT_GT(static_cast<double>(biasedPcs) / hotPcs, 0.5);
}

/** Property: every profile streams deterministically and well-formed
 *  across seeds. */
class GeneratorSeedSweep : public ::testing::TestWithParam<int>
{};

TEST_P(GeneratorSeedSweep, StableAcrossSeeds)
{
    uint64_t seed = static_cast<uint64_t>(GetParam());
    SyntheticTraceGenerator g(profileByName("workstation"), seed);
    uint64_t lastSeq = 0;
    for (int i = 0; i < 2000; ++i) {
        auto op = g.next();
        ASSERT_TRUE(op);
        ASSERT_TRUE(op->wellFormed());
        EXPECT_EQ(op->seqNum, lastSeq + 1);
        lastSeq = op->seqNum;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Range(1, 9));

} // namespace
} // namespace trace
} // namespace iraw
