/** @file
 * The generate-once trace store: replay fidelity, once-per-key
 * thread-safe materialization, resident-byte accounting and LRU
 * byte-cap eviction, the disk-cache layer, and bitwise determinism of
 * sweep aggregates with the store on vs off, through the disk cache
 * and across thread counts.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "sim/runner.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "trace/trace_record.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace trace {
namespace {

// The store keeps each trace resident as records x sizeof(MicroOp),
// so this size is a sweep's trace memory.  Field order matters:
// 1-byte fields placed between the 8-byte ones pad it to 56.
static_assert(sizeof(isa::MicroOp) == 40,
              "MicroOp is the resident trace format: keep it 40 bytes");

/** @p buffer's ops in the file encoding: a bitwise view for equality. */
std::vector<uint8_t>
packed(const TraceBuffer &buffer)
{
    std::vector<uint8_t> bytes(buffer.records() * kTraceRecordBytes);
    for (uint64_t i = 0; i < buffer.records(); ++i)
        packRecord(buffer.ops()[i], bytes.data() + i * kTraceRecordBytes);
    return bytes;
}

TEST(TraceBuffer, ReplayMatchesLiveGenerator)
{
    const WorkloadProfile &profile = profileByName("spec2006int");
    const uint64_t length = 20000;
    TraceBufferPtr buffer = materializeSynthetic(profile, 7, length);
    ASSERT_EQ(buffer->records(), length);

    SyntheticTraceGenerator gen(profile, 7);
    ReplayTraceSource replay(buffer);
    for (uint64_t i = 0; i < length; ++i) {
        auto expect = gen.next();
        auto got = replay.next();
        ASSERT_TRUE(expect && got) << "at record " << i;
        EXPECT_EQ(got->seqNum, expect->seqNum);
        EXPECT_EQ(got->pc, expect->pc);
        EXPECT_EQ(got->opClass, expect->opClass);
        EXPECT_EQ(got->dst, expect->dst);
        EXPECT_EQ(got->src1, expect->src1);
        EXPECT_EQ(got->src2, expect->src2);
        EXPECT_EQ(got->memAddr, expect->memAddr);
        EXPECT_EQ(got->memSize, expect->memSize);
        EXPECT_EQ(got->target, expect->target);
        EXPECT_EQ(got->taken, expect->taken);
    }
    EXPECT_FALSE(replay.next().has_value());

    replay.reset();
    auto first = replay.next();
    ASSERT_TRUE(first);
    EXPECT_EQ(first->seqNum, 1u);
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
    EXPECT_EQ(held->at(0).seqNum, 1u);
}

class TraceStoreDiskTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = ::testing::TempDir() + "iraw_store_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(_dir);
    }
    void TearDown() override { std::filesystem::remove_all(_dir); }
    std::string _dir;
};

TEST_F(TraceStoreDiskTest, DiskCacheRoundTrip)
{
    const WorkloadProfile &profile = profileByName("server");
    TraceStore::Config cfg;
    cfg.diskDir = _dir;

    TraceBufferPtr fresh;
    {
        TraceStore store(cfg);
        fresh = store.acquireSynthetic(profile, 4, 5000);
        EXPECT_EQ(store.stats().diskHits, 0u);
    }
    // The materialization was published as a trace file.
    ASSERT_FALSE(std::filesystem::is_empty(_dir));

    // A fresh store (fresh process) hits the disk layer.
    TraceStore store2(cfg);
    TraceBufferPtr cached = store2.acquireSynthetic(profile, 4, 5000);
    TraceStore::Stats stats = store2.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.diskHits, 1u);

    ASSERT_EQ(cached->records(), fresh->records());
    EXPECT_EQ(packed(*cached), packed(*fresh));
}

TEST_F(TraceStoreDiskTest, CorruptCacheFileDeletedAndRegenerated)
{
    namespace fs = std::filesystem;
    const WorkloadProfile &profile = profileByName("server");
    TraceStore::Config cfg;
    cfg.diskDir = _dir;

    TraceBufferPtr fresh;
    {
        TraceStore store(cfg);
        fresh = store.acquireSynthetic(profile, 9, 4000);
    }
    // Truncate the published cache file mid-record, as a crash or
    // disk error would.
    fs::path cached;
    for (const auto &entry : fs::directory_iterator(_dir))
        cached = entry.path();
    ASSERT_FALSE(cached.empty());
    fs::resize_file(cached, fs::file_size(cached) / 2 + 3);

    // A fresh store must delete the bad file, regenerate the exact
    // trace, and republish it.
    TraceStore store2(cfg);
    TraceBufferPtr regen = store2.acquireSynthetic(profile, 9, 4000);
    TraceStore::Stats stats = store2.stats();
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.diskBadFiles, 1u);
    EXPECT_EQ(packed(*regen), packed(*fresh));

    // The republished file serves a third store from disk.
    TraceStore store3(cfg);
    EXPECT_EQ(packed(*store3.acquireSynthetic(profile, 9, 4000)),
              packed(*fresh));
    EXPECT_EQ(store3.stats().diskHits, 1u);
    EXPECT_EQ(store3.stats().diskBadFiles, 0u);
}

TEST_F(TraceStoreDiskTest, FailedPublishKeepsTheTrace)
{
    namespace fs = std::filesystem;
    const WorkloadProfile &profile = profileByName("server");
    TraceStore::Config cfg;
    cfg.diskDir = _dir;
    {
        TraceStore store(cfg);
        store.acquireSynthetic(profile, 5, 3000);
    }
    fs::path published;
    for (const auto &entry : fs::directory_iterator(_dir))
        published = entry.path();
    ASSERT_FALSE(published.empty());

    // Drop the cache file and put a directory where the next
    // publish writes its temporary, so the TraceWriter cannot open
    // it -- as an unwritable directory or a full disk would fail.
    fs::remove(published);
    fs::create_directory(published.string() + ".tmp." +
                         std::to_string(::getpid()));

    TraceStore store2(cfg);
    TraceBufferPtr buffer;
    ASSERT_NO_THROW(buffer = store2.acquireSynthetic(profile, 5, 3000));
    EXPECT_EQ(packed(*buffer),
              packed(*materializeSynthetic(profile, 5, 3000)));
    EXPECT_EQ(store2.stats().diskHits, 0u);
    // Nothing was published and no temporary was left behind.
    for (const auto &entry : fs::directory_iterator(_dir))
        EXPECT_FALSE(entry.is_regular_file()) << entry.path();
}

TEST_F(TraceStoreDiskTest, StaleTmpLeftoversSweptAtConstruction)
{
    namespace fs = std::filesystem;
    fs::create_directories(_dir);
    // A write-temporary from a long-gone process (pid 1 is alive but
    // never a test writer; use an unparseable and a dead-pid name).
    const std::string dead =
        _dir + "/synth_x_s1_n100_h1.v1.trc.tmp.999999999";
    const std::string garbled =
        _dir + "/synth_x_s1_n100_h1.v1.trc.tmp.notapid";
    const std::string live =
        _dir + "/synth_x_s1_n100_h1.v1.trc.tmp." +
        std::to_string(::getpid());
    const std::string published = _dir + "/synth_y.v1.trc";
    for (const std::string &p : {dead, garbled, live, published}) {
        std::ofstream out(p);
        out << "x";
    }

    TraceStore::Config cfg;
    cfg.diskDir = _dir;
    TraceStore store(cfg);

    EXPECT_FALSE(fs::exists(dead));
    EXPECT_FALSE(fs::exists(garbled));
    // Our own pid is alive: the temporary may belong to a concurrent
    // writer and must survive the sweep.  Published files too.
    EXPECT_TRUE(fs::exists(live));
    EXPECT_TRUE(fs::exists(published));
    EXPECT_EQ(store.stats().staleTmpFiles, 2u);
}

TEST_F(TraceStoreDiskTest, AcquireFileServesWholeTrace)
{
    const WorkloadProfile &profile = profileByName("office");
    std::filesystem::create_directories(_dir);
    const std::string path = _dir + "/input.trc";
    SyntheticTraceGenerator gen(profile, 11);
    dumpTrace(gen, path, 3000);

    TraceStore store;
    TraceBufferPtr buffer = store.acquireFile(path);
    ASSERT_EQ(buffer->records(), 3000u);

    gen.reset();
    ReplayTraceSource replay(buffer);
    for (uint64_t i = 0; i < 3000; ++i) {
        auto expect = gen.next();
        auto got = replay.next();
        ASSERT_TRUE(expect && got);
        EXPECT_EQ(got->seqNum, expect->seqNum);
        EXPECT_EQ(got->pc, expect->pc);
    }

    EXPECT_EQ(store.acquireFile(path).get(), buffer.get());
    EXPECT_EQ(store.stats().hits, 1u);
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

void
expectMachinesBitwiseEqual(const std::vector<MachineAtVcc> &a,
                           const std::vector<MachineAtVcc> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].instructions, b[i].instructions);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].ipc, b[i].ipc);
        EXPECT_EQ(a[i].execTimeAu, b[i].execTimeAu);
        EXPECT_EQ(a[i].rfIrawStalls, b[i].rfIrawStalls);
        EXPECT_EQ(a[i].iqGateStalls, b[i].iqGateStalls);
        EXPECT_EQ(a[i].dl0IrawStalls, b[i].dl0IrawStalls);
        EXPECT_EQ(a[i].otherIrawStalls, b[i].otherIrawStalls);
        EXPECT_EQ(a[i].rfIrawDelayedInsts, b[i].rfIrawDelayedInsts);
    }
}

TEST(TraceStoreSweep, StoreOnOffAggregatesBitwiseIdentical)
{
    Simulator plain;
    Simulator stored;
    stored.setTraceStore(std::make_shared<trace::TraceStore>());

    auto off = SweepRunner(plain).runMachines(smallSweep(),
                                              smallPoints());
    auto on = SweepRunner(stored).runMachines(smallSweep(),
                                              smallPoints());
    expectMachinesBitwiseEqual(off, on);

    // The store actually served the sweep: 3 traces materialized,
    // every other acquisition a hit.
    auto stats = stored.traceStore()->stats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 3u * 3u - 3u);
}

TEST(TraceStoreSweep, DiskCacheAggregatesBitwiseIdentical)
{
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "iraw_store_sweep";
    fs::remove_all(dir);
    trace::TraceStore::Config cfg;
    cfg.diskDir = dir;

    Simulator plain;
    auto off = SweepRunner(plain).runMachines(smallSweep(),
                                              smallPoints());

    // Two fresh stores on one directory, as two processes would
    // see it: the first generates and publishes every trace, the
    // second must replay all of them from disk.
    for (int process = 0; process < 2; ++process) {
        Simulator cached;
        cached.setTraceStore(std::make_shared<trace::TraceStore>(cfg));
        auto on = SweepRunner(cached).runMachines(smallSweep(),
                                                  smallPoints());
        expectMachinesBitwiseEqual(off, on);

        auto stats = cached.traceStore()->stats();
        EXPECT_GT(stats.misses, 0u);
        EXPECT_EQ(stats.diskHits, process == 0 ? 0u : stats.misses)
            << "store " << process;
    }
    fs::remove_all(dir);
}

TEST(TraceStoreSweep, CrossThreadAggregatesBitwiseIdentical)
{
    Simulator sim;
    sim.setTraceStore(std::make_shared<trace::TraceStore>());

    auto serial = SweepRunner(sim, RunnerConfig{1})
                      .runMachines(smallSweep(), smallPoints());
    auto parallel = SweepRunner(sim, RunnerConfig{8})
                        .runMachines(smallSweep(), smallPoints());
    expectMachinesBitwiseEqual(serial, parallel);
}

TEST(TraceStoreSweep, FileTraceSuiteEntryReplays)
{
    const std::string path =
        ::testing::TempDir() + "iraw_store_suite.trc";
    trace::SyntheticTraceGenerator gen(
        trace::profileByName("spec2006int"), 1);
    trace::dumpTrace(gen, path, 10000);

    Simulator sim;
    sim.setTraceStore(std::make_shared<trace::TraceStore>());
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
