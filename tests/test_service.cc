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
#include <functional>

#include "adapt/vcc_controller.hh"
#include "common/logging.hh"
#include "fields_equal.hh"
#include "obs/event_tracer.hh"
#include "service/fault_injector.hh"
#include "service/shard_manifest.hh"
#include "service/spool.hh"
#include "service/supervisor.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace service {
namespace {

namespace fs = std::filesystem;

/** Every listed field of every result, doubles bit for bit; host
 *  wall-clock time is off the list. */
void
expectResultsIdentical(const std::vector<sim::SimResult> &got,
                       const std::vector<sim::SimResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("result " + std::to_string(i));
        expectFieldsEqual(got[i], want[i]);
    }
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
    // An adaptive run exercises the deepest payload: its segments
    // ride in the same value array as the scalar fields.
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
    expectFieldsEqual(back, r);
    EXPECT_EQ(back.host.wallSeconds, r.host.wallSeconds);

    // Damaged payloads decode as false, never as wrong data.
    EXPECT_FALSE(decodeResult(payload.substr(0, payload.size() / 2),
                              index, back));
    EXPECT_FALSE(decodeResult("not json", index, back));
    EXPECT_FALSE(decodeResult(encodeShardHeader("shard-0-0-abc", 2),
                              index, back));
}

TEST(SpoolCodec, CappedExploreResultRoundTrips)
{
    // A cap no point can meet: every epoch violates it, so every
    // adapt.cap counter is nonzero and must survive the codec.
    sim::Simulator sim;
    sim::SimConfig cfg;
    cfg.workload = "spec2006int";
    cfg.instructions = 12000;
    cfg.warmupInstructions = 2000;
    cfg.vcc = 550.0;
    auto acfg = std::make_shared<adapt::AdaptConfig>();
    acfg->policy = adapt::Policy::Explore;
    acfg->epochCycles = 1500;
    acfg->floorVcc = 450.0;
    acfg->capPowerAu = 1e-9;
    cfg.adapt = acfg;
    sim::SimResult r = sim.run(cfg);
    ASSERT_GT(r.adapt.epochs, 0u);
    ASSERT_EQ(r.adapt.cap.capViolationEpochs, r.adapt.epochs);
    ASSERT_GT(r.adapt.cap.exploreEpochs, 0u);

    uint64_t index = 0;
    sim::SimResult back;
    ASSERT_TRUE(decodeResult(encodeResult(3, r), index, back));
    EXPECT_EQ(index, 3u);
    expectFieldsEqual(back, r);
}

/** Position of field @p name in a fixed-Vcc result's value array,
 *  where every listed field is one value. */
size_t
valuePosition(const std::string &name)
{
    size_t pos = 0;
    size_t found = std::string::npos;
    sim::SimResult r;
    sim::SimResult::fields(
        [&](const char *field, const auto &) {
            if (name == field)
                found = pos;
            ++pos;
        },
        r);
    return found;
}

/** @p payload with value @p pos of its "f" array replaced. */
std::string
withValue(const std::string &payload, size_t pos,
          const std::string &value)
{
    size_t begin = payload.find("\"f\":[") + 5;
    for (size_t i = 0; i < pos; ++i)
        begin = payload.find(',', begin) + 1;
    const size_t end = payload.find_first_of(",]", begin);
    return payload.substr(0, begin) + value + payload.substr(end);
}

TEST(SpoolCodec, RejectsValuesOutOfTheirFieldsRange)
{
    sim::Simulator sim;
    const std::string payload =
        encodeResult(0, sim.run(smallConfigs()[0]));
    uint64_t index = 0;
    sim::SimResult back;

    // The control: an in-range edit decodes to what it says.
    const size_t cycles = valuePosition("pipeline.cycles");
    ASSERT_NE(cycles, std::string::npos);
    ASSERT_TRUE(
        decodeResult(withValue(payload, cycles, "5"), index, back));
    EXPECT_EQ(back.pipeline.cycles, 5u);

    // 2^64 + 5 must not wrap to 5, nor a field keep a value its type
    // cannot hold.
    EXPECT_FALSE(decodeResult(
        withValue(payload, cycles, "18446744073709551621"), index,
        back));
    EXPECT_FALSE(decodeResult(
        withValue(payload, valuePosition("settings.stabilizationCycles"),
                  "4294967296"),
        index, back));
    EXPECT_FALSE(decodeResult(
        withValue(payload, valuePosition("settings.enabled"), "2"),
        index, back));
    EXPECT_FALSE(decodeResult(
        withValue(payload, valuePosition("adapt.policy"), "5"), index,
        back));

    // The record index and the header's item count parse the same
    // way.
    std::string stem;
    uint64_t items = 0;
    EXPECT_FALSE(decodeShardHeader(
        "{\"t\":\"hdr\",\"v\":1,\"shard\":\"s\","
        "\"items\":18446744073709551616}",
        stem, items));
    std::string bigIndex = payload;
    bigIndex.replace(bigIndex.find("\"i\":0") + 4, 1,
                     "18446744073709551616");
    EXPECT_FALSE(decodeResult(bigIndex, index, back));
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

    // capSelectFraction decides which explore candidates are
    // feasible, so it renames the shard like every adapt field.
    std::vector<sim::SimConfig> adapted = configs;
    adapted[0].adapt = std::make_shared<adapt::AdaptConfig>();
    std::vector<sim::SimConfig> headroom = configs;
    auto acfg = std::make_shared<adapt::AdaptConfig>();
    acfg->capSelectFraction = 0.5;
    headroom[0].adapt = acfg;
    EXPECT_NE(buildManifest(headroom, 2, 0).shards[0].stem,
              buildManifest(adapted, 2, 0).shards[0].stem);

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

TEST(ShardManifest, EveryHashedFieldMovesTheFingerprint)
{
    // A base with a chip and an adapt config attached, so every
    // hashed field is reachable.
    auto chip = [](const variation::VariationParams &params,
                   uint64_t populationSeed, uint32_t index) {
        return std::make_shared<const variation::ChipSample>(
            variation::ChipSample::sample(
                variation::VariationModel(params), populationSeed,
                index,
                variation::ChipGeometry::from(core::CoreConfig(),
                                              memory::MemoryConfig())));
    };
    sim::SimConfig base;
    base.chip = chip(variation::VariationParams(), 1, 0);
    base.adapt = std::make_shared<const adapt::AdaptConfig>();
    const uint64_t fp = configFingerprint(base);

    using Edit = std::function<void(sim::SimConfig &)>;
    auto adaptEdit = [](std::function<void(adapt::AdaptConfig &)> f) {
        return [f = std::move(f)](sim::SimConfig &c) {
            auto a = std::make_shared<adapt::AdaptConfig>(*c.adapt);
            f(*a);
            c.adapt = a;
        };
    };
    auto chipEdit =
        [&chip](std::function<void(variation::VariationParams &)> f,
                uint64_t populationSeed, uint32_t index) {
            return [chip, f = std::move(f), populationSeed,
                    index](sim::SimConfig &c) {
                variation::VariationParams params;
                f(params);
                c.chip = chip(params, populationSeed, index);
            };
        };
    auto noParams = [](variation::VariationParams &) {};

    std::vector<std::pair<std::string, Edit>> moves = {
        {"fetchWidth", [](sim::SimConfig &c) { ++c.core.fetchWidth; }},
        {"issueWidth", [](sim::SimConfig &c) { ++c.core.issueWidth; }},
        {"iqEntries", [](sim::SimConfig &c) { c.core.iqEntries *= 2; }},
        {"scoreboardBits",
         [](sim::SimConfig &c) { ++c.core.scoreboardBits; }},
        {"bypassLevels", [](sim::SimConfig &c) { ++c.core.bypassLevels; }},
        {"commitStoresPerCycle",
         [](sim::SimConfig &c) { ++c.core.commitStoresPerCycle; }},
        {"maxStabilizationCycles",
         [](sim::SimConfig &c) { ++c.core.maxStabilizationCycles; }},
        {"branchMispredictPenalty",
         [](sim::SimConfig &c) { ++c.core.branchMispredictPenalty; }},
        {"loadMissForwardDelay",
         [](sim::SimConfig &c) { ++c.core.loadMissForwardDelay; }},
        {"predictorKind",
         [](sim::SimConfig &c) { c.core.predictorKind = "gshare"; }},
        {"predictorEntries",
         [](sim::SimConfig &c) { c.core.predictorEntries *= 2; }},
        {"predictorHistoryBits",
         [](sim::SimConfig &c) { ++c.core.predictorHistoryBits; }},
        {"rsbDepth", [](sim::SimConfig &c) { ++c.core.rsbDepth; }},
        {"determinismMode",
         [](sim::SimConfig &c) { c.core.determinismMode = true; }},
        {"injectPredictionCorruption",
         [](sim::SimConfig &c) {
             c.core.injectPredictionCorruption = true;
         }},
        {"corruptionSeed",
         [](sim::SimConfig &c) { ++c.core.corruptionSeed; }},
        {"intAluUnits", [](sim::SimConfig &c) { ++c.core.intAluUnits; }},
        {"memPorts", [](sim::SimConfig &c) { ++c.core.memPorts; }},
        {"fpUnits", [](sim::SimConfig &c) { ++c.core.fpUnits; }},
        {"ul1HitLatency", [](sim::SimConfig &c) { ++c.mem.ul1HitLatency; }},
        {"fbEntries", [](sim::SimConfig &c) { ++c.mem.fbEntries; }},
        {"wcbEntries", [](sim::SimConfig &c) { ++c.mem.wcbEntries; }},
        {"wcbDrainLatency",
         [](sim::SimConfig &c) { ++c.mem.wcbDrainLatency; }},
        {"wcbForwardLatency",
         [](sim::SimConfig &c) { ++c.mem.wcbForwardLatency; }},
        {"dramLatencyNs", [](sim::SimConfig &c) { c.mem.dramLatencyNs += 1; }},
        {"workload", [](sim::SimConfig &c) { c.workload = "office"; }},
        {"tracePath", [](sim::SimConfig &c) { c.tracePath = "x.trc"; }},
        {"seed", [](sim::SimConfig &c) { ++c.seed; }},
        {"instructions", [](sim::SimConfig &c) { ++c.instructions; }},
        {"warmupInstructions",
         [](sim::SimConfig &c) { ++c.warmupInstructions; }},
        {"vcc", [](sim::SimConfig &c) { c.vcc += 25.0; }},
        {"mode",
         [](sim::SimConfig &c) { c.mode = mechanism::IrawMode::ForcedOn; }},
        {"issueThrottle", [](sim::SimConfig &c) { c.issueThrottle = 1; }},
        {"no chip", [](sim::SimConfig &c) { c.chip = nullptr; }},
        {"chip index", chipEdit(noParams, 1, 1)},
        {"chip seed", chipEdit(noParams, 2, 0)},
        {"sigma", chipEdit([](auto &p) { p.sigma += 0.01; }, 1, 0)},
        {"systematicSigma",
         chipEdit([](auto &p) { p.systematicSigma += 0.01; }, 1, 0)},
        {"voltageExponent",
         chipEdit([](auto &p) { p.voltageExponent += 1.0; }, 1, 0)},
        {"no adapt", [](sim::SimConfig &c) { c.adapt = nullptr; }},
        {"policy", adaptEdit([](auto &a) {
             a.policy = adapt::Policy::Reactive;
         })},
        {"epochCycles", adaptEdit([](auto &a) { ++a.epochCycles; })},
        {"switchCycles", adaptEdit([](auto &a) { ++a.switchCycles; })},
        {"switchEnergyAu",
         adaptEdit([](auto &a) { a.switchEnergyAu += 1.0; })},
        {"floorVcc", adaptEdit([](auto &a) { a.floorVcc = 450.0; })},
        {"stepDownThreshold",
         adaptEdit([](auto &a) { a.stepDownThreshold += 0.01; })},
        {"stepUpThreshold",
         adaptEdit([](auto &a) { a.stepUpThreshold += 0.01; })},
        {"refTimePerInst",
         adaptEdit([](auto &a) { a.refTimePerInst += 1.0; })},
        {"irawDynOverhead",
         adaptEdit([](auto &a) { a.irawDynOverhead += 0.01; })},
        {"capPowerAu", adaptEdit([](auto &a) { a.capPowerAu = 1.0; })},
        {"modeVariants", adaptEdit([](auto &a) { ++a.modeVariants; })},
        {"throttleVariants",
         adaptEdit([](auto &a) { ++a.throttleVariants; })},
        {"hysteresisEpochs",
         adaptEdit([](auto &a) { ++a.hysteresisEpochs; })},
        {"phaseIpcThreshold",
         adaptEdit([](auto &a) { a.phaseIpcThreshold += 0.01; })},
        {"phaseStallThreshold",
         adaptEdit([](auto &a) { a.phaseStallThreshold += 0.01; })},
        {"capSelectFraction",
         adaptEdit([](auto &a) { a.capSelectFraction = 0.5; })},
        {"resolvedFloorVcc",
         adaptEdit([](auto &a) { a.resolvedFloorVcc = 450.0; })},
    };
    for (size_t i = 0; i < isa::kNumOpClasses; ++i) {
        const auto cls = static_cast<isa::OpClass>(i);
        moves.emplace_back(
            "latency of class " + std::to_string(i),
            [cls](sim::SimConfig &c) {
                c.core.latencies.setLatency(
                    cls, c.core.latencies.latency(cls) + 1);
            });
    }
    using Cache = memory::CacheParams memory::MemoryConfig::*;
    for (Cache cache : {&memory::MemoryConfig::il0,
                        &memory::MemoryConfig::dl0,
                        &memory::MemoryConfig::ul1}) {
        moves.emplace_back("cache sizeBytes", [cache](sim::SimConfig &c) {
            (c.mem.*cache).sizeBytes *= 2;
        });
        moves.emplace_back("cache assoc", [cache](sim::SimConfig &c) {
            (c.mem.*cache).assoc *= 2;
        });
        moves.emplace_back("cache lineBytes", [cache](sim::SimConfig &c) {
            (c.mem.*cache).lineBytes *= 2;
        });
    }
    using Tlb = memory::TlbParams memory::MemoryConfig::*;
    for (Tlb tlb : {&memory::MemoryConfig::itlb,
                    &memory::MemoryConfig::dtlb}) {
        moves.emplace_back("tlb entries", [tlb](sim::SimConfig &c) {
            (c.mem.*tlb).entries *= 2;
        });
        moves.emplace_back("tlb pageBytes", [tlb](sim::SimConfig &c) {
            (c.mem.*tlb).pageBytes *= 2;
        });
        moves.emplace_back("tlb missPenalty", [tlb](sim::SimConfig &c) {
            ++(c.mem.*tlb).missPenalty;
        });
    }
    for (const auto &[what, edit] : moves) {
        sim::SimConfig cfg = base;
        edit(cfg);
        EXPECT_NE(configFingerprint(cfg), fp) << what;
    }

    // Observers and labels do not change a result, so they keep the
    // fingerprint.
    const std::vector<std::pair<std::string, Edit>> stays = {
        {"profile", [](sim::SimConfig &c) { c.profile = true; }},
        {"tracer",
         [](sim::SimConfig &c) {
             c.tracer = std::make_shared<obs::EventTracer>();
         }},
        {"cache names",
         [](sim::SimConfig &c) {
             c.mem.il0.name = c.mem.dl0.name = c.mem.ul1.name = "x";
         }},
        {"tlb names",
         [](sim::SimConfig &c) {
             c.mem.itlb.name = c.mem.dtlb.name = "x";
         }},
    };
    for (const auto &[what, edit] : stays) {
        sim::SimConfig cfg = base;
        edit(cfg);
        EXPECT_EQ(configFingerprint(cfg), fp) << what;
    }
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

TEST_F(ServiceRunTest, FailedShardsAreReportedInManifestOrder)
{
    sim::Simulator sim;
    // Two shards of two items each.  Shard 0 dies after simulating
    // its first item, long enough that shard 1, which dies at start,
    // fails first; the report still names them in manifest order.
    std::vector<sim::SimConfig> configs = smallConfigs();
    configs.resize(4);
    for (sim::SimConfig &c : configs)
        c.instructions = 200000;
    ServiceConfig cfg = baseConfig();
    cfg.faults = FaultPlan::parse("crash:1@0!,crash@1!");
    cfg.retries = 0;
    ServiceSession session(cfg);
    std::vector<Shard> manifest = buildManifest(configs, 2, 0).shards;
    runSharded(sim, session, configs, 2);

    EXPECT_EQ(session.stats().failedShards,
              (std::vector<std::string>{manifest[0].stem,
                                        manifest[1].stem}));
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

TEST_F(ServiceRunTest, ResumeRejectsARecordOfTheWrongItem)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    std::vector<Shard> manifest = buildManifest(configs, 2, 0).shards;

    {
        ServiceSession session(baseConfig());
        runSharded(sim, session, configs, 2);
    }

    // Rewrite one completed spool as its header plus its first
    // item's record twice: every frame and CRC is valid, but the
    // second record names the wrong item.
    const std::string victim = donePath(_dir, manifest[2]);
    SpoolScan scan = scanSpoolFile(victim);
    ASSERT_EQ(scan.payloads.size(), 3u);
    {
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out << frameRecord(scan.payloads[0])
            << frameRecord(scan.payloads[1])
            << frameRecord(scan.payloads[1]);
    }

    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(resumed, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.shardsReused, 3u);
    EXPECT_EQ(stats.badRecords, 1u);
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST_F(ServiceRunTest, ResumeRerunsADoneSpoolWithAnExtraRecord)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    std::vector<Shard> manifest = buildManifest(configs, 2, 0).shards;

    {
        ServiceSession session(baseConfig());
        runSharded(sim, session, configs, 2);
    }

    // Append a copy of one completed spool's last record: every
    // frame and CRC is valid and every item is there, but one
    // record follows the shard's last item.
    const std::string victim = donePath(_dir, manifest[2]);
    SpoolScan scan = scanSpoolFile(victim);
    ASSERT_EQ(scan.payloads.size(), 3u);
    {
        std::ofstream out(victim, std::ios::binary | std::ios::app);
        out << frameRecord(scan.payloads[2]);
    }

    // The spool is not reused as complete; its shard reruns.
    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(resumed, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.shardsReused, 3u);
    EXPECT_EQ(stats.badRecords, 1u);
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST_F(ServiceRunTest, ResumeTruncatesAPartSpoolAtItsUsablePrefix)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();
    const Shard shard = buildManifest(configs, 2, 0).shards[2];

    {
        ServiceSession session(baseConfig());
        runSharded(sim, session, configs, 2);
    }

    // Turn one completed spool into a checkpoint of its header, its
    // first item's record and that record again: every frame and
    // CRC is valid, but only the first two records are usable.
    SpoolScan scan = scanSpoolFile(donePath(_dir, shard));
    ASSERT_EQ(scan.payloads.size(), 3u);
    fs::remove(donePath(_dir, shard));
    {
        std::ofstream out(partPath(_dir, shard), std::ios::binary);
        out << frameRecord(scan.payloads[0])
            << frameRecord(scan.payloads[1])
            << frameRecord(scan.payloads[1]);
    }

    // The resume cuts the repeat off, keeps the first item and
    // appends the second after it.
    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    expectResultsIdentical(resumed, inProcess(sim, configs));

    ServiceStats stats = session.stats();
    EXPECT_EQ(stats.shardsReused, 3u);
    EXPECT_EQ(stats.tornTails, 1u);
    EXPECT_EQ(stats.recordsResumed, configs.size() - 1);
    EXPECT_EQ(stats.shardsFailed, 0u);
}

TEST_F(ServiceRunTest, ResumeRerunsShardsOfARewrittenTraceFile)
{
    // Invariant 8: a trace= file's shards are named by its bytes,
    // not only its path, so a file rewritten between a complete run
    // and a resume reruns instead of merging the old trace's results.
    const std::string path = _dir + ".trc";
    auto dump = [&path](const char *workload) {
        trace::dumpTrace(*trace::materializeSynthetic(
                             trace::profileByName(workload), 1, 6000),
                         path, 6000);
    };
    std::vector<sim::SimConfig> configs;
    for (double vcc : {450.0, 500.0}) {
        sim::SimConfig cfg;
        cfg.workload = "file";
        cfg.tracePath = path;
        cfg.instructions = 4000;
        cfg.warmupInstructions = 1000;
        cfg.vcc = vcc;
        configs.push_back(cfg);
    }

    dump("kernels");
    {
        sim::Simulator sim;
        ServiceSession session(baseConfig());
        runSharded(sim, session, configs, 2);
        ASSERT_EQ(session.stats().shardsCompleted, 1u);
    }

    dump("server");
    // A fresh simulator: its store never loaded the old file.
    sim::Simulator sim;
    ServiceConfig cfg = baseConfig();
    cfg.resume = true;
    ServiceSession session(cfg);
    std::vector<sim::SimResult> resumed =
        runSharded(sim, session, configs, 2);
    EXPECT_EQ(session.stats().shardsReused, 0u);
    expectResultsIdentical(resumed, inProcess(sim, configs));
    fs::remove(path);
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
