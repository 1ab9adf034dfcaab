/**
 * @file
 * The fault-tolerant sharded experiment service: spool codec
 * round-trips, torn-tail truncation, checksum rejection,
 * crash/retry/resume determinism (invariant 8: an interrupted,
 * resumed sharded run merges byte-identical to an uninterrupted
 * in-process run), timeout escalation, and explicit failed-shard
 * accounting.
 *
 * Every fault here is injected through the deterministic
 * faultinject= plan — no sleeps against real crashes.  One timeout
 * is measured, not assumed: the hung-worker test bounds each attempt
 * by twice the in-process wall time of its whole config set, so a
 * healthy shard finishes inside it on any build (sanitized Debug
 * included) and only the hung worker times out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "adapt/vcc_controller.hh"
#include "common/logging.hh"
#include "service/fault_injector.hh"
#include "service/shard_manifest.hh"
#include "service/spool.hh"
#include "service/supervisor.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

namespace iraw {
namespace service {
namespace {

namespace fs = std::filesystem;

/**
 * The full transported field set of @p r as one string: encodeResult
 * covers every deterministic field (all doubles bit-for-bit), so two
 * results with equal canonical forms are bitwise identical up to
 * host wall-clock telemetry, which is zeroed out here because it is
 * legitimately different across processes.
 */
std::string
canonical(sim::SimResult r)
{
    r.host = sim::HostProfile{};
    return encodeResult(0, r);
}

void
expectResultsIdentical(const std::vector<sim::SimResult> &got,
                       const std::vector<sim::SimResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(canonical(got[i]), canonical(want[i]))
            << "result " << i;
}

/** 8 configs over 4 trace groups (2 workloads x 2 seeds, 2 voltages
 *  each); a chunk size of 2 shards them into 4 shards of 2 items. */
std::vector<sim::SimConfig>
smallConfigs()
{
    std::vector<sim::SimConfig> configs;
    for (const char *workload : {"spec2006int", "multimedia"}) {
        for (uint64_t seed : {1, 2}) {
            for (double vcc : {450.0, 500.0}) {
                sim::SimConfig cfg;
                cfg.workload = workload;
                cfg.seed = seed;
                cfg.instructions = 4000;
                cfg.warmupInstructions = 1000;
                cfg.vcc = vcc;
                configs.push_back(cfg);
            }
        }
    }
    return configs;
}

std::vector<sim::SimResult>
inProcess(const sim::Simulator &sim,
          const std::vector<sim::SimConfig> &configs)
{
    std::vector<sim::SimResult> results;
    for (const sim::SimConfig &cfg : configs)
        results.push_back(sim.run(cfg));
    return results;
}

TEST(SpoolCodec, ResultRoundTripsBitwise)
{
    // An adaptive run exercises the deepest payload: per-epoch
    // segments ride along with the 71 scalar fields.
    sim::Simulator sim;
    sim::SimConfig cfg;
    cfg.workload = "spec2006int";
    cfg.instructions = 12000;
    cfg.warmupInstructions = 2000;
    cfg.vcc = 550.0;
    auto acfg = std::make_shared<adapt::AdaptConfig>();
    acfg->policy = adapt::Policy::Reactive;
    acfg->epochCycles = 1500;
    acfg->floorVcc = 450.0;
    cfg.adapt = acfg;
    sim::SimResult r = sim.run(cfg);
    ASSERT_TRUE(r.adapt.enabled);
    ASSERT_FALSE(r.adapt.segments.empty());

    const std::string payload = encodeResult(42, r);
    uint64_t index = 0;
    sim::SimResult back;
    ASSERT_TRUE(decodeResult(payload, index, back));
    EXPECT_EQ(index, 42u);
    back.config = cfg; // not transported; the supervisor re-attaches
    EXPECT_EQ(encodeResult(42, back), payload);
    EXPECT_EQ(back.adapt.segments.size(), r.adapt.segments.size());
    EXPECT_EQ(back.ipc, r.ipc); // bit-exact, not approximate
    EXPECT_EQ(back.host.wallSeconds, r.host.wallSeconds);

    // Damaged payloads decode as false, never as wrong data.
    EXPECT_FALSE(decodeResult(payload.substr(0, payload.size() / 2),
                              index, back));
    EXPECT_FALSE(decodeResult("not json", index, back));
    EXPECT_FALSE(decodeResult(encodeShardHeader("shard-0-0-abc", 2),
                              index, back));
}

TEST(SpoolCodec, ShardHeaderRoundTrips)
{
    const std::string payload =
        encodeShardHeader("shard-3-1-00ff00ff00ff00ff", 7);
    std::string stem;
    uint64_t items = 0;
    ASSERT_TRUE(decodeShardHeader(payload, stem, items));
    EXPECT_EQ(stem, "shard-3-1-00ff00ff00ff00ff");
    EXPECT_EQ(items, 7u);
    EXPECT_FALSE(decodeShardHeader("{}", stem, items));
}

class SpoolFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = ::testing::TempDir() + "iraw_spool_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }
    void TearDown() override { fs::remove_all(_dir); }
    std::string _dir;
};

TEST_F(SpoolFileTest, ScanAcceptsWholeFramesOnly)
{
    const std::string path = _dir + "/shard.jsonl.part";
    SpoolWriter writer;
    ASSERT_TRUE(writer.open(path, false));
    ASSERT_TRUE(writer.append("{\"a\":1}"));
    ASSERT_TRUE(writer.append("{\"b\":2}"));
    const uint64_t cleanBytes = fs::file_size(path);

    SpoolScan scan = scanSpoolFile(path);
    EXPECT_TRUE(scan.exists);
    EXPECT_FALSE(scan.torn);
    ASSERT_EQ(scan.payloads.size(), 2u);
    EXPECT_EQ(scan.payloads[0], "{\"a\":1}");
    EXPECT_EQ(scan.payloads[1], "{\"b\":2}");
    EXPECT_EQ(scan.validBytes, cleanBytes);

    // A torn tail — half a frame, as a SIGKILL mid-write leaves —
    // must not hide the durable prefix.
    ASSERT_TRUE(writer.appendRaw("IRSP1 4096 deadbeef {\"c\":"));
    scan = scanSpoolFile(path);
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.payloads.size(), 2u);
    EXPECT_EQ(scan.validBytes, cleanBytes);

    // Truncating at validBytes is exactly the resume repair.
    fs::resize_file(path, scan.validBytes);
    scan = scanSpoolFile(path);
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.payloads.size(), 2u);

    // An absent file is empty, not torn.
    scan = scanSpoolFile(_dir + "/absent.jsonl");
    EXPECT_FALSE(scan.exists);
    EXPECT_FALSE(scan.torn);
    EXPECT_TRUE(scan.payloads.empty());
}

TEST_F(SpoolFileTest, ScanRejectsChecksumMismatch)
{
    const std::string path = _dir + "/shard.jsonl";
    SpoolWriter writer;
    ASSERT_TRUE(writer.open(path, false));
    ASSERT_TRUE(writer.append("{\"a\":1}"));
    ASSERT_TRUE(writer.append("{\"b\":2}"));

    // Flip one payload byte of the second frame on disk; its CRC no
    // longer matches, so the scan must stop after the first record.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const size_t pos = bytes.rfind("{\"b\":2}");
    ASSERT_NE(pos, std::string::npos);
    bytes[pos + 5] = '3'; // {"b":3} under {"b":2}'s CRC
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    SpoolScan scan = scanSpoolFile(path);
    EXPECT_TRUE(scan.torn);
    ASSERT_EQ(scan.payloads.size(), 1u);
    EXPECT_EQ(scan.payloads[0], "{\"a\":1}");
}

TEST(ShardManifest, DeterministicAndConfigSensitive)
{
    std::vector<sim::SimConfig> configs = smallConfigs();
    std::vector<Shard> a = buildManifest(configs, 2, 0).shards;
    std::vector<Shard> b = buildManifest(configs, 2, 0).shards;
    ASSERT_EQ(a.size(), 4u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stem, b[i].stem);
        EXPECT_EQ(a[i].indices, b[i].indices);
    }

    // The shard decomposition is exactly the in-process runner's.
    std::vector<std::vector<size_t>> chunks =
        sim::traceGroupedChunks(configs, 2);
    ASSERT_EQ(chunks.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].indices, chunks[i]);

    // Any result-affecting config change renames every shard, so a
    // stale spool directory can never satisfy a different sweep.
    std::vector<sim::SimConfig> other = configs;
    other[0].instructions += 1;
    std::vector<Shard> c = buildManifest(other, 2, 0).shards;
    EXPECT_NE(c[0].stem, a[0].stem);
    // ... and so does the call ordinal.
    std::vector<Shard> d = buildManifest(configs, 2, 1).shards;
    EXPECT_NE(d[0].stem, a[0].stem);

    // profile= is a host-only observer (invariant 6): toggling it
    // must keep every stem, so resume= still finds the spools.
    std::vector<sim::SimConfig> profiled = configs;
    for (sim::SimConfig &cfg : profiled)
        cfg.profile = true;
    std::vector<Shard> e = buildManifest(profiled, 2, 0).shards;
    ASSERT_EQ(e.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(e[i].stem, a[i].stem);
}

class ServiceRunTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = ::testing::TempDir() + "iraw_service_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(_dir);
    }
    void TearDown() override { fs::remove_all(_dir); }

    ServiceConfig
    baseConfig() const
    {
        ServiceConfig cfg;
        cfg.workers = 3;
        cfg.spoolDir = _dir;
        cfg.backoffMs = 1; // keep retry tests fast
        cfg.timeoutSeconds = 60.0;
        return cfg;
    }

    std::string _dir;
};

TEST_F(ServiceRunTest, ShardedMatchesInProcessBitwise)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    ServiceSession session(baseConfig());
    std::vector<sim::SimResult> sharded =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(sharded, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.shardsTotal, 4u);
    EXPECT_EQ(stats.shardsCompleted, 4u);
    EXPECT_EQ(stats.shardsFailed, 0u);
    EXPECT_EQ(stats.records, configs.size());
    EXPECT_EQ(stats.launches, 4u);
    EXPECT_EQ(stats.crashes, 0u);
}

TEST_F(ServiceRunTest, CrashedWorkerRetriesFromItsCheckpoint)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    ServiceConfig cfg = baseConfig();
    // Every shard crashes after spooling its first record — once.
    // The relaunch must pick up from the durable checkpoint, not
    // rerun the whole shard.
    cfg.faults = FaultPlan::parse("crash:1");
    cfg.retries = 2;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> sharded =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(sharded, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.crashes, 4u);
    EXPECT_EQ(stats.retries, 4u);
    EXPECT_EQ(stats.launches, 8u);
    EXPECT_EQ(stats.shardsFailed, 0u);
    // The checkpointed first record of each shard was recovered,
    // not recomputed.
    EXPECT_EQ(stats.recordsResumed, 4u);
}

TEST_F(ServiceRunTest, RetryExhaustionDegradesExplicitly)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    ServiceConfig cfg = baseConfig();
    // Shard ordinal 1 crashes at start on EVERY attempt: its
    // retries exhaust, its slots stay zeroed, everything else
    // completes — graceful degradation with explicit accounting.
    cfg.faults = FaultPlan::parse("crash@1!");
    cfg.retries = 1;
    ServiceSession session(cfg);
    std::vector<Shard> manifest = buildManifest(configs, 2, 0).shards;
    std::vector<sim::SimResult> sharded =
        runSharded(sim, session, configs, 2);

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.shardsFailed, 1u);
    EXPECT_EQ(stats.shardsCompleted, 3u);
    EXPECT_EQ(stats.crashes, 2u); // first launch + 1 retry
    EXPECT_EQ(stats.retries, 1u);
    ASSERT_EQ(stats.failedShards.size(), 1u);
    EXPECT_EQ(stats.failedShards[0], manifest[1].stem);

    std::vector<sim::SimResult> want = inProcess(sim, configs);
    for (size_t index : manifest[1].indices)
        want[index] = sim::SimResult(); // zeroed, never garbage
    expectResultsIdentical(sharded, want);
}

TEST_F(ServiceRunTest, ResumeAfterHardFailureIsByteIdentical)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();

    // Phase 1: every shard checkpoints one record, then dies on
    // every attempt until retries exhaust — the run "fails" but
    // leaves durable part-file checkpoints behind.
    {
        ServiceConfig cfg = baseConfig();
        cfg.faults = FaultPlan::parse("crash:1!");
        cfg.retries = 1;
        ServiceSession session(cfg);
        runSharded(sim, session, configs, 2);
        EXPECT_EQ(session.stats().shardsFailed, 4u);
    }

    // Phase 2: a fresh session (fresh process, in production)
    // resumes the spool directory with the faults gone.  Invariant
    // 8: the merged output is byte-identical to an uninterrupted
    // in-process run.
    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(resumed, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.shardsFailed, 0u);
    // Phase 1 checkpointed BOTH records of every 2-item shard (the
    // retry recovered record 1, computed record 2, and crashed
    // after it was durable), so the resume recomputes nothing.
    EXPECT_EQ(stats.recordsResumed, configs.size());
    EXPECT_EQ(stats.records, configs.size());
}

TEST_F(ServiceRunTest, TornTailTruncatedOnResume)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();

    // Phase 1: after one good record each shard appends garbage
    // half-frames and dies, attempt after attempt — exactly what a
    // power cut mid-write leaves on disk.
    {
        ServiceConfig cfg = baseConfig();
        cfg.faults = FaultPlan::parse("torntail:1!");
        cfg.retries = 0;
        ServiceSession session(cfg);
        runSharded(sim, session, configs, 2);
        EXPECT_EQ(session.stats().shardsFailed, 4u);
    }

    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(resumed, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_GE(stats.tornTails, 4u);
    EXPECT_EQ(stats.recordsResumed, 4u); // the good records survive
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST_F(ServiceRunTest, CorruptCompletedSpoolRejectedOnResume)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    std::vector<Shard> manifest = buildManifest(configs, 2, 0).shards;

    {
        ServiceSession session(baseConfig());
        runSharded(sim, session, configs, 2);
    }

    // Bit-rot one completed spool: flip a byte inside its last
    // record's payload (CRC now mismatches).
    const std::string victim = donePath(_dir, manifest[2]);
    ASSERT_TRUE(fs::exists(victim));
    std::string bytes;
    {
        std::ifstream in(victim, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const size_t pos = bytes.rfind("\"f\":[");
    ASSERT_NE(pos, std::string::npos);
    bytes[pos + 5] ^= 1;
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    // Resume must reject the damaged spool (checksum, not trust),
    // recompute that shard, and still merge byte-identically.
    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(resumed, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.shardsReused, 3u);
    EXPECT_EQ(stats.shardsCompleted, 1u);
    EXPECT_GE(stats.badRecords, 1u);
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST_F(ServiceRunTest, HungWorkerEscalatesSigtermToSigkill)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    auto start = std::chrono::steady_clock::now();
    std::vector<sim::SimResult> want = inProcess(sim, configs);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    ServiceConfig cfg = baseConfig();
    // Shard 0's first attempt blocks forever AND ignores SIGTERM,
    // so only the SIGKILL escalation can reclaim the worker.  The
    // retry (fault spent) then succeeds.  The timeout bounds every
    // attempt, so it scales with this build's measured speed: a
    // shard runs a quarter of the configs timed above.
    cfg.faults = FaultPlan::parse("sleep@0");
    cfg.retries = 1;
    cfg.timeoutSeconds = std::max(0.2, 2.0 * elapsed.count());
    cfg.killGraceSeconds = 0.05;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> sharded =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(sharded, want);

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.sigterms, 1u);
    EXPECT_EQ(stats.sigkills, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST_F(ServiceRunTest, SpoolWriteFailureExitsCleanlyAndRetries)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    ServiceConfig cfg = baseConfig();
    // First attempt of every shard hits injected ENOSPC on its
    // spool writes: the worker must exit with the spool-error code
    // (not crash, not hang), and the retry succeeds.
    cfg.faults = FaultPlan::parse("enospc");
    cfg.retries = 1;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> sharded =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(sharded, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.spoolErrors, 4u);
    EXPECT_EQ(stats.exitFailures, 4u);
    EXPECT_EQ(stats.crashes, 0u);
    EXPECT_EQ(stats.retries, 4u);
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST(FaultPlanParse, SyntaxAndErrors)
{
    FaultPlan plan =
        FaultPlan::parse("crash:2@1!,sleep,torntail:1,enospc@3");
    ASSERT_EQ(plan.clauses.size(), 4u);
    EXPECT_EQ(plan.clauses[0].kind, FaultClause::Kind::Crash);
    EXPECT_EQ(plan.clauses[0].afterItems, 2u);
    EXPECT_TRUE(plan.clauses[0].hasShard);
    EXPECT_EQ(plan.clauses[0].shard, 1u);
    EXPECT_TRUE(plan.clauses[0].everyAttempt);
    EXPECT_EQ(plan.clauses[1].kind, FaultClause::Kind::Sleep);
    EXPECT_FALSE(plan.clauses[1].hasShard);
    EXPECT_FALSE(plan.clauses[1].everyAttempt);
    EXPECT_EQ(plan.clauses[2].kind, FaultClause::Kind::TornTail);
    EXPECT_EQ(plan.clauses[3].kind, FaultClause::Kind::Enospc);
    EXPECT_TRUE(FaultPlan::parse("").empty());

    EXPECT_THROW(FaultPlan::parse("explode"), FatalError);
    EXPECT_THROW(FaultPlan::parse("crash:x"), FatalError);
    EXPECT_THROW(FaultPlan::parse("crash,,sleep"), FatalError);
}

} // namespace
} // namespace service
} // namespace iraw
