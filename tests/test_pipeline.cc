/** @file Integration tests for the in-order pipeline. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "fields_equal.hh"
#include "trace/trace_store.hh"
#include "trace/workload.hh"

namespace iraw {
namespace core {
namespace {

mechanism::IrawSettings
settings(bool enabled, uint32_t n)
{
    mechanism::IrawSettings s;
    s.enabled = enabled;
    s.stabilizationCycles = n;
    s.cycleTime = 2.0;
    s.baselineCycleTime = 2.0;
    return s;
}

/** The longest run any Rig test makes. */
constexpr uint64_t kRigInsts = 30000;

/** A pipeline replaying a synthetic workload's trace, materialized
 *  long enough for runs of up to @p insts instructions. */
struct Rig
{
    memory::MemoryConfig memCfg;
    CoreConfig coreCfg;
    trace::ReplayTraceSource src;
    memory::MemoryHierarchy mem;
    Pipeline pipe;

    explicit Rig(const std::string &workload = "spec2006int",
                 uint64_t seed = 1, uint64_t insts = kRigInsts)
        : src(trace::materializeSynthetic(
              trace::profileByName(workload), seed,
              trace::replayLength(insts, coreCfg.iqEntries))),
          mem(memCfg), pipe(coreCfg, mem, src)
    {
        mem.setDramLatencyCycles(80);
    }
};

/** A pipeline replaying a hand-built trace. */
struct ReplayRig
{
    memory::MemoryConfig memCfg;
    CoreConfig coreCfg;
    trace::ReplayTraceSource src;
    memory::MemoryHierarchy mem;
    Pipeline pipe;

    explicit ReplayRig(std::vector<isa::MicroOp> ops)
        : src(std::make_shared<const trace::TraceBuffer>(
              "hand-built", std::move(ops))),
          mem(memCfg), pipe(coreCfg, mem, src)
    {
        mem.setDramLatencyCycles(80);
    }
};

/** Register-to-register op @p seq of class @p cls: dst <- src1. */
isa::MicroOp
regOp(uint64_t seq, isa::OpClass cls, isa::RegId dst, isa::RegId src1)
{
    isa::MicroOp op;
    op.pc = 0x1000 + 4 * (seq - 1);
    op.opClass = cls;
    op.dst = dst;
    op.src1 = src1;
    return op;
}

TEST(PipelineTest, WriteCompletionTimingOnHandBuiltTrace)
{
    // A 20-cycle divide into r5 (past the 8-bit shift registers'
    // reach), a consumer of r5, then a second writer of r5 (WAW).  Pins the
    // cycle a long-latency write wakes its consumer, the cycle a
    // pending write stops blocking the next writer, and the cycle
    // the last write completes.
    const std::vector<isa::MicroOp> ops = {
        regOp(1, isa::OpClass::IntDiv, 5, 1),
        regOp(2, isa::OpClass::IntAlu, 6, 5),
        regOp(3, isa::OpClass::IntAlu, 5, 2),
    };
    struct Expected
    {
        uint32_t n = 0;
        uint64_t cycles = 0, raw = 0, waw = 0, rfIraw = 0, quiescedAt = 0;
    };
    const Expected expected[] = {
        {0, 134, 19, 0, 0, 135},
        {2, 136, 19, 0, 0, 137},
    };
    for (const Expected &want : expected) {
        SCOPED_TRACE("N=" + std::to_string(want.n));
        ReplayRig rig(ops);
        rig.pipe.applySettings(settings(want.n > 0, want.n));
        const PipelineStats &s = rig.pipe.run(100);
        EXPECT_EQ(s.committedInsts, 3u);
        EXPECT_EQ(s.cycles, want.cycles);
        EXPECT_EQ(s.rawStallCycles, want.raw);
        EXPECT_EQ(s.wawStallCycles, want.waw);
        EXPECT_EQ(s.rfIrawStallCycles, want.rfIraw);
        EXPECT_FALSE(rig.pipe.quiescedForSwitch())
            << "the WAW writer's write is still in flight";
        rig.pipe.drainQuiesce(100);
        EXPECT_TRUE(rig.pipe.quiescedForSwitch());
        EXPECT_EQ(rig.pipe.currentCycle(), want.quiescedAt);
    }
}

TEST(PipelineTest, ReconfigurationRequiresNoWriteInFlight)
{
    // The scoreboard fixes a write's stabilization cycle (and its N)
    // at issue, so N may change only while quiesced.
    ReplayRig rig({regOp(1, isa::OpClass::IntDiv, 5, 1)});
    rig.pipe.applySettings(settings(true, 1));
    rig.pipe.run(1);
    EXPECT_THROW(rig.pipe.applySettings(settings(true, 2)),
                 PanicError);
    EXPECT_THROW(rig.pipe.applyStabilizationMaps(nullptr),
                 PanicError);
    rig.pipe.drainQuiesce(2);
    ASSERT_TRUE(rig.pipe.quiescedForSwitch());
    EXPECT_NO_THROW(rig.pipe.applySettings(settings(true, 2)));
    // Past the in-flight check: null maps are a configuration error.
    EXPECT_THROW(rig.pipe.applyStabilizationMaps(nullptr),
                 FatalError);
}

TEST(PipelineTest, RunsToCompletion)
{
    Rig rig;
    rig.pipe.applySettings(settings(false, 0));
    const auto &stats = rig.pipe.run(20000);
    EXPECT_EQ(stats.committedInsts, 20000u);
    EXPECT_GT(stats.cycles, 20000u / 2) << "IPC can never exceed 2";
    EXPECT_GT(stats.ipc(), 0.15);
    EXPECT_LT(stats.ipc(), 2.0);
}

TEST(PipelineTest, DeterministicAcrossRuns)
{
    Rig a, b;
    a.pipe.applySettings(settings(true, 1));
    b.pipe.applySettings(settings(true, 1));
    const auto &sa = a.pipe.run(15000);
    const auto &sb = b.pipe.run(15000);
    EXPECT_EQ(sa.cycles, sb.cycles);
    EXPECT_EQ(sa.rfIrawStallCycles, sb.rfIrawStallCycles);
    EXPECT_EQ(sa.mispredicts, sb.mispredicts);
}

TEST(PipelineTest, StopCycleChunkingIsInvisible)
{
    // Invariant 1 (docs/ARCHITECTURE.md): runUntil() cut at any
    // sequence of stop cycles executes exactly the tick sequence of
    // one run().  A short stride puts a boundary inside nearly every
    // miss and stall window; a long one crosses few.
    const uint64_t insts = 15000;
    for (uint32_t n : {0u, 2u}) {
        Rig whole;
        whole.pipe.applySettings(settings(n > 0, n));
        const PipelineStats &want = whole.pipe.run(insts);
        for (memory::Cycle stride : {257ull, 4096ull}) {
            SCOPED_TRACE("N=" + std::to_string(n) +
                         " stride=" + std::to_string(stride));
            Rig chunked;
            chunked.pipe.applySettings(settings(n > 0, n));
            memory::Cycle stop = 0;
            while (chunked.pipe.stats().committedInsts < insts) {
                stop += stride;
                chunked.pipe.runUntil(insts, stop);
            }
            expectFieldsEqual(chunked.pipe.stats(), want);
        }
    }
}

TEST(PipelineTest, BaselineHasNoIrawArtifacts)
{
    Rig rig;
    rig.pipe.applySettings(settings(false, 0));
    const auto &stats = rig.pipe.run(20000);
    EXPECT_EQ(stats.rfIrawStallCycles, 0u);
    EXPECT_EQ(stats.iqGateStallCycles, 0u);
    EXPECT_EQ(stats.dl0ReplayStallCycles, 0u);
    EXPECT_EQ(stats.rfIrawDelayedInsts, 0u);
    EXPECT_EQ(stats.drainNops, 0u);
    EXPECT_EQ(rig.mem.totalIrawStallCycles(), 0u);
}

TEST(PipelineTest, IrawModeCostsCyclesButBounded)
{
    Rig base, iraw;
    base.pipe.applySettings(settings(false, 0));
    iraw.pipe.applySettings(settings(true, 1));
    const auto &sb = base.pipe.run(20000);
    const auto &si = iraw.pipe.run(20000);
    EXPECT_GT(si.cycles, sb.cycles)
        << "IRAW stalls must cost something";
    // Paper band: the IPC degradation stays around 8-10%, never
    // catastrophic.
    EXPECT_LT(static_cast<double>(si.cycles), sb.cycles * 1.35);
    EXPECT_GT(si.rfIrawStallCycles, 0u);
    EXPECT_GT(si.rfIrawDelayedInsts, 0u);
}

TEST(PipelineTest, DelayedInstructionsInPaperBand)
{
    // Sec. 5.2: 13.2% of instructions are delayed by RF IRAW
    // avoidance.  Aggregate over the suite the band is 8-16%.
    uint64_t delayed = 0, total = 0;
    for (const char *w : {"spec2006int", "spec2006fp", "office"}) {
        Rig rig(w);
        rig.pipe.applySettings(settings(true, 1));
        const auto &s = rig.pipe.run(20000);
        delayed += s.rfIrawDelayedInsts;
        total += s.committedInsts;
    }
    double frac = static_cast<double>(delayed) / total;
    EXPECT_GT(frac, 0.05);
    EXPECT_LT(frac, 0.25);
}

TEST(PipelineTest, HigherNMeansMoreStalls)
{
    Rig n1, n2;
    n1.pipe.applySettings(settings(true, 1));
    n2.pipe.applySettings(settings(true, 2));
    const auto &s1 = n1.pipe.run(15000);
    const auto &s2 = n2.pipe.run(15000);
    EXPECT_GT(s2.cycles, s1.cycles);
    EXPECT_GE(s2.rfIrawStallCycles, s1.rfIrawStallCycles);
}

TEST(PipelineTest, BranchStatsSane)
{
    Rig rig;
    rig.pipe.applySettings(settings(false, 0));
    const auto &s = rig.pipe.run(30000);
    EXPECT_GT(s.branches, 1000u);
    EXPECT_LT(s.mispredicts, s.branches / 4);
    EXPECT_GT(rig.pipe.branchPredictor().accuracy(), 0.8);
}

TEST(PipelineTest, StoreTableSeesStores)
{
    Rig rig;
    rig.pipe.applySettings(settings(true, 1));
    rig.pipe.run(20000);
    EXPECT_GT(rig.pipe.storeTable().storesTracked(), 1000u);
    EXPECT_GT(rig.pipe.storeTable().probes(), 1000u);
}

TEST(PipelineTest, RejectsNBeyondHardwareSizing)
{
    Rig rig;
    EXPECT_THROW(rig.pipe.applySettings(settings(true, 5)),
                 FatalError);
}

TEST(PipelineTest, DeterminismModeStallsRsbConflicts)
{
    CoreConfig cfg;
    cfg.determinismMode = true;
    memory::MemoryConfig mc;
    trace::ReplayTraceSource src(trace::materializeSynthetic(
        trace::profileByName("office"), 3,
        trace::replayLength(30000, cfg.iqEntries)));
    memory::MemoryHierarchy mem(mc);
    mem.setDramLatencyCycles(80);
    Pipeline pipe(cfg, mem, src);
    pipe.applySettings(settings(true, 1));
    const auto &s = pipe.run(30000);
    // Determinism mode converts window pops into stalls, never into
    // corrupt predictions.
    EXPECT_EQ(s.rsbConflictPops, s.rsbDeterminismStalls);
    EXPECT_EQ(s.injectedCorruptions, 0u);
}

TEST(PipelineTest, EveryWorkloadRuns)
{
    for (const auto &profile : trace::builtinProfiles()) {
        Rig rig(profile.name, 2);
        rig.pipe.applySettings(settings(true, 1));
        const auto &s = rig.pipe.run(5000);
        EXPECT_EQ(s.committedInsts, 5000u) << profile.name;
        EXPECT_GT(s.ipc(), 0.05) << profile.name;
    }
}

TEST(PipelineTest, ReplayLengthCoversTheFetchLookahead)
{
    // Why a bounded replay is the unbounded stream: a run commits
    // its whole budget from a replayLength() buffer and leaves ops
    // unread, so the frontend (IQ and fetch lookahead included)
    // never reaches end-of-trace and its drain-NOP path.
    const uint64_t insts = 20000;
    for (const auto &profile : trace::builtinProfiles()) {
        for (uint32_t n : {0u, 2u}) {
            SCOPED_TRACE(profile.name + " N=" + std::to_string(n));
            Rig rig(profile.name, 1, insts);
            rig.pipe.applySettings(settings(n > 0, n));
            EXPECT_EQ(rig.pipe.run(insts).committedInsts, insts);
            EXPECT_NE(rig.src.take(), nullptr)
                << "the frontend read the whole buffer";
        }
    }
}

/** Property: cycles scale monotonically with instruction count. */
class PipelineLength : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PipelineLength, MonotoneCycles)
{
    Rig rig("multimedia", 4);
    rig.pipe.applySettings(settings(true, 1));
    const auto &s = rig.pipe.run(GetParam());
    EXPECT_EQ(s.committedInsts, GetParam());
    EXPECT_GE(s.cycles, GetParam() / 2);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PipelineLength,
                         ::testing::Values(1000, 5000, 20000));

} // namespace
} // namespace core
} // namespace iraw
