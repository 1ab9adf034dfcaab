/** @file
 * Integration: the binary trace-file path drives the pipeline
 * identically to the live generator — the ingestion route for users
 * replaying real (e.g. SPEC) traces through the simulator.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/pipeline.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace {

core::PipelineStats
runTrace(const trace::TraceBufferPtr &buffer, uint64_t insts)
{
    core::CoreConfig cfg;
    memory::MemoryConfig mc;
    memory::MemoryHierarchy mem(mc);
    mem.setDramLatencyCycles(100);
    trace::ReplayTraceSource src(buffer);
    core::Pipeline pipe(cfg, mem, src);
    mechanism::IrawSettings s;
    s.enabled = true;
    s.stabilizationCycles = 1;
    pipe.applySettings(s);
    return pipe.run(insts);
}

TEST(TraceReplay, FileAndGeneratorAgreeCycleExactly)
{
    std::string path =
        ::testing::TempDir() + "iraw_replay_test.trc";
    const uint64_t insts = 20000;
    const trace::WorkloadProfile &profile =
        trace::profileByName("spec2006int");

    trace::TraceBufferPtr synthetic =
        trace::materializeSynthetic(profile, 9, insts + 1000);
    trace::dumpTrace(*synthetic, path, insts + 1000);

    core::PipelineStats live = runTrace(synthetic, insts);
    core::PipelineStats replay =
        runTrace(trace::materializeFile(path), insts);

    EXPECT_EQ(live.cycles, replay.cycles);
    EXPECT_EQ(live.committedInsts, replay.committedInsts);
    EXPECT_EQ(live.mispredicts, replay.mispredicts);
    EXPECT_EQ(live.rfIrawStallCycles, replay.rfIrawStallCycles);
    EXPECT_EQ(live.loadMisses, replay.loadMisses);

    std::remove(path.c_str());
}

TEST(TraceReplay, ShortTraceEndsSimulationGracefully)
{
    std::string path =
        ::testing::TempDir() + "iraw_replay_short.trc";
    trace::dumpTrace(*trace::materializeSynthetic(
                         trace::profileByName("kernels"), 2, 500),
                     path, 500);

    core::PipelineStats stats =
        runTrace(trace::materializeFile(path), 100000);
    // The run ends when the trace does; drain NOPs may issue to
    // flush the IQ past the Eq. (1) gate.
    EXPECT_EQ(stats.committedInsts, 500u);
    EXPECT_GT(stats.cycles, 250u);

    std::remove(path.c_str());
}

} // namespace
} // namespace iraw
