/** @file
 * The generate-once trace store: replay fidelity, once-per-key
 * thread-safe materialization, resident-byte accounting and LRU
 * byte-cap eviction, whole-file loading, and a sweep that
 * materializes each trace once with bitwise-identical aggregates
 * across thread counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/instruction_queue.hh"
#include "fields_equal.hh"
#include "sim/runner.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace trace {
namespace {

// An IQ entry points into the resident trace instead of holding a
// copy of the op.
static_assert(sizeof(core::IqEntry) == 24,
              "IqEntry holds a pointer into the trace, not a MicroOp");

TEST(TraceBuffer, ReplayMatchesLiveGenerator)
{
    const WorkloadProfile &profile = profileByName("spec2006int");
    const uint64_t length = 20000;
    TraceBufferPtr buffer = materializeSynthetic(profile, 7, length);
    ASSERT_EQ(buffer->records(), length);

    SyntheticTraceGenerator gen(profile, 7);
    ReplayTraceSource replay(buffer);
    isa::MicroOp expect;
    for (uint64_t i = 0; i < length; ++i) {
        gen.next(expect);
        const isa::MicroOp *got = replay.take();
        ASSERT_TRUE(got) << "at record " << i;
        EXPECT_EQ(got->pc, expect.pc);
        EXPECT_EQ(got->opClass, expect.opClass);
        EXPECT_EQ(got->dst, expect.dst);
        EXPECT_EQ(got->src1, expect.src1);
        EXPECT_EQ(got->src2, expect.src2);
        EXPECT_EQ(got->memAddr, expect.memAddr);
        EXPECT_EQ(got->memSize, expect.memSize);
        EXPECT_EQ(got->target, expect.target);
        EXPECT_EQ(got->taken, expect.taken);
    }
    EXPECT_EQ(replay.take(), nullptr);
}

TEST(TraceBuffer, SeqNumIsPositionPlusOne)
{
    // Derived, not stored: the buffer costs 32 bytes per op.
    TraceBufferPtr buffer =
        materializeSynthetic(profileByName("office"), 5, 500);
    EXPECT_EQ(buffer->bytes(), 500u * 32);
    for (uint64_t i = 0; i < buffer->records(); ++i)
        EXPECT_EQ(buffer->seqNum(i), i + 1);
}

TEST(TraceStore, HitMissAccounting)
{
    TraceStore store;
    const WorkloadProfile &profile = profileByName("kernels");
    TraceBufferPtr a = store.acquireSynthetic(profile, 1, 1000);
    TraceBufferPtr b = store.acquireSynthetic(profile, 1, 1000);
    EXPECT_EQ(a.get(), b.get());

    TraceStore::Stats stats = store.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.buffers, 1u);
    EXPECT_EQ(stats.bytesInUse, a->bytes());

    // A different length is a different trace.
    TraceBufferPtr c = store.acquireSynthetic(profile, 1, 2000);
    stats = store.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.buffers, 2u);
    // The cap accounts what is resident: decoded ops, nothing else.
    EXPECT_EQ(stats.bytesInUse,
              (a->records() + c->records()) * sizeof(isa::MicroOp));
}

TEST(TraceStore, ConcurrentAcquiresMaterializeOnce)
{
    TraceStore store;
    const WorkloadProfile &profile = profileByName("spec2006fp");
    constexpr unsigned kThreads = 8;
    std::vector<TraceBufferPtr> buffers(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &profile, &buffers, t] {
            buffers[t] = store.acquireSynthetic(profile, 3, 30000);
        });
    }
    for (auto &th : threads)
        th.join();

    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(buffers[t].get(), buffers[0].get());
    TraceStore::Stats stats = store.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, kThreads - 1u);
}

TEST(TraceStore, SixteenThreadOncePerKeyHammer)
{
    // Regression lock on the double-checked materialization path
    // (trace_store.cc acquire(): registration under _mutex,
    // materialization outside it, promise/shared_future
    // publication).  16 threads race over 4 distinct keys in rotated
    // order while also polling stats(); each key must materialize
    // exactly once and every winner/waiter must see the same buffer.
    TraceStore store;
    const WorkloadProfile &profile = profileByName("spec2006int");
    constexpr unsigned kThreads = 16;
    constexpr unsigned kKeys = 4;
    constexpr unsigned kRounds = 3;

    // buffers[t][k]: what thread t saw for key k on the last round.
    std::vector<std::array<TraceBufferPtr, kKeys>> buffers(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &profile, &buffers, t] {
            for (unsigned round = 0; round < kRounds; ++round) {
                for (unsigned i = 0; i < kKeys; ++i) {
                    // Rotate the visit order per thread so every key
                    // sees registration races from several threads.
                    unsigned k = (i + t) % kKeys;
                    buffers[t][k] = store.acquireSynthetic(
                        profile, 100 + k, 20000);
                }
                // stats() takes the store mutex mid-hammer; under
                // TSan this cross-checks the lock discipline.
                (void)store.stats();
            }
        });
    }
    for (auto &th : threads)
        th.join();

    for (unsigned k = 0; k < kKeys; ++k) {
        ASSERT_NE(buffers[0][k], nullptr);
        for (unsigned t = 1; t < kThreads; ++t)
            EXPECT_EQ(buffers[t][k].get(), buffers[0][k].get())
                << "thread " << t << " key " << k;
    }
    TraceStore::Stats stats = store.stats();
    EXPECT_EQ(stats.misses, kKeys);
    EXPECT_EQ(stats.hits,
              uint64_t{kThreads} * kKeys * kRounds - kKeys);
    EXPECT_EQ(stats.buffers, kKeys);
}

TEST(TraceStore, LruEvictsAtByteCap)
{
    const WorkloadProfile &profile = profileByName("multimedia");
    const uint64_t length = 1000;
    const uint64_t bytesPer = length * sizeof(isa::MicroOp);

    // Room for two buffers, not three.
    TraceStore::Config cfg;
    cfg.byteCap = 2 * bytesPer + bytesPer / 2;
    TraceStore store(cfg);

    store.acquireSynthetic(profile, 1, length);
    store.acquireSynthetic(profile, 2, length);
    EXPECT_EQ(store.stats().evictions, 0u);

    // Touch seed 1 so seed 2 is the LRU victim.
    store.acquireSynthetic(profile, 1, length);
    store.acquireSynthetic(profile, 3, length);

    TraceStore::Stats stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.buffers, 2u);
    EXPECT_LE(stats.bytesInUse, cfg.byteCap);

    // Seed 1 survived (it was touched); seed 2 must rematerialize.
    store.acquireSynthetic(profile, 1, length);
    EXPECT_EQ(store.stats().misses, 3u);
    store.acquireSynthetic(profile, 2, length);
    EXPECT_EQ(store.stats().misses, 4u);
}

TEST(TraceStore, EvictedBufferStaysAliveForHolders)
{
    const WorkloadProfile &profile = profileByName("kernels");
    TraceStore::Config cfg;
    cfg.byteCap = 1; // evict on every new buffer
    TraceStore store(cfg);

    TraceBufferPtr held = store.acquireSynthetic(profile, 1, 500);
    store.acquireSynthetic(profile, 2, 500);
    EXPECT_EQ(store.stats().evictions, 1u);
    // The store dropped its reference; ours still reads.
    EXPECT_EQ(held->records(), 500u);
    EXPECT_EQ(held->at(0).pc, SyntheticTraceGenerator::kCodeBase);
}

TEST(TraceStore, AcquireFileServesWholeTrace)
{
    const WorkloadProfile &profile = profileByName("office");
    const std::string path = ::testing::TempDir() + "iraw_store_input.trc";
    dumpTrace(*materializeSynthetic(profile, 11, 3000), path, 3000);

    TraceStore store;
    TraceBufferPtr buffer = store.acquireFile(path);
    ASSERT_EQ(buffer->records(), 3000u);

    SyntheticTraceGenerator gen(profile, 11);
    isa::MicroOp expect;
    for (uint64_t i = 0; i < 3000; ++i) {
        gen.next(expect);
        EXPECT_EQ(buffer->seqNum(i), i + 1);
        EXPECT_EQ(buffer->at(i).pc, expect.pc);
    }

    EXPECT_EQ(store.acquireFile(path).get(), buffer.get());
    EXPECT_EQ(store.stats().hits, 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace trace

namespace sim {
namespace {

SweepConfig
smallSweep()
{
    SweepConfig cfg;
    cfg.suite = quickSuite(4000);
    cfg.warmupInstructions = 2000;
    return cfg;
}

std::vector<MachinePoint>
smallPoints()
{
    return {{500.0, mechanism::IrawMode::ForcedOff},
            {500.0, mechanism::IrawMode::Auto},
            {550.0, mechanism::IrawMode::Auto}};
}

TEST(TraceStoreSweep, SweepMaterializesEachTraceOnce)
{
    Simulator sim;
    SweepRunner(sim).runMachines(smallSweep(), smallPoints());

    // 3 traces materialized, every other acquisition a hit.
    auto stats = sim.traceStore()->stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 3u * 3u - 3u);
}

TEST(TraceStoreSweep, CrossThreadAggregatesBitwiseIdentical)
{
    Simulator sim;

    auto serial = SweepRunner(sim, RunnerConfig{1})
                      .runMachines(smallSweep(), smallPoints());
    auto parallel = SweepRunner(sim, RunnerConfig{8})
                        .runMachines(smallSweep(), smallPoints());
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectMachinesIdentical(serial[i], parallel[i]);
}

TEST(TraceStoreSweep, FileTraceSuiteEntryReplays)
{
    const std::string path =
        ::testing::TempDir() + "iraw_store_suite.trc";
    trace::dumpTrace(*trace::materializeSynthetic(
                         trace::profileByName("spec2006int"), 1, 10000),
                     path, 10000);

    Simulator sim;
    SweepConfig cfg;
    cfg.suite = {SuiteEntry("file", 1, 4000, path)};
    cfg.warmupInstructions = 2000;
    auto machines = SweepRunner(sim).runMachines(
        cfg, {{500.0, mechanism::IrawMode::Auto}});
    ASSERT_EQ(machines.size(), 1u);
    EXPECT_EQ(machines[0].instructions, 4000u);
    std::remove(path.c_str());
}

} // namespace
} // namespace sim
} // namespace iraw
