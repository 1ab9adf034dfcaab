/**
 * @file
 * The unified telemetry layer (src/obs/): registry thread safety and
 * deterministic snapshots, Chrome-trace well-formedness and
 * crash-safe spool merging, the shared snapshot printer's byte
 * format, live progress output, and — the part that matters most —
 * determinism invariant 9: attaching telemetry to a run never
 * changes a simulated result, in-process or sharded.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fields_equal.hh"
#include "obs/event_tracer.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"
#include "service/fault_injector.hh"
#include "service/spool.hh"
#include "service/supervisor.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "sim/stats_report.hh"

namespace iraw {
namespace obs {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ metrics

TEST(MetricsRegistry, SixteenThreadHammerSnapshotsDeterministic)
{
    constexpr int kThreads = 16;
    constexpr int kIters = 2000;

    // Two registries hammered by different interleavings must
    // produce identical ByName snapshots: registration is
    // idempotent and updates are commutative.
    MetricsRegistry a;
    MetricsRegistry b;
    for (MetricsRegistry *registry : {&a, &b}) {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([registry, t]() {
                for (int i = 0; i < kIters; ++i) {
                    registry->counter("hammer", "adds").add();
                    registry
                        ->counter("hammer",
                                  "lane_" + std::to_string(t % 4))
                        .add(2);
                }
                registry->gauge("hammer", "level").set(42.5);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    EXPECT_EQ(a.counter("hammer", "adds").value(),
              uint64_t(kThreads) * kIters);
    EXPECT_EQ(a.counter("hammer", "lane_0").value(),
              uint64_t(kThreads) / 4 * kIters * 2);

    std::ostringstream sa;
    std::ostringstream sb;
    writeSnapshot(sa, a.snapshot(MetricsRegistry::Order::ByName));
    writeSnapshot(sb, b.snapshot(MetricsRegistry::Order::ByName));
    EXPECT_EQ(sa.str(), sb.str());
    EXPECT_FALSE(sa.str().empty());
}

TEST(MetricsRegistry, RegistrationIsIdempotent)
{
    MetricsRegistry m;
    Counter &c1 = m.counter("g", "c", "first wins");
    Counter &c2 = m.counter("g", "c", "ignored duplicate desc");
    EXPECT_EQ(&c1, &c2);
    c1.add(3);
    EXPECT_EQ(c2.value(), 3u);

    auto snap = m.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].desc, "first wins");
}

TEST(WriteSnapshot, PrintsTheFlatReportFormat)
{
    // "<group>.<name padded to 36> <value padded to 16>", then
    // "  # <desc>" when there is one.  Counters print exact
    // integers; gauges print doubles at the stream's default
    // precision.
    MetricsRegistry m;
    m.counter("grp", "counted", "a described counter").set(1234);
    m.counter("grp", "bare").set(7);
    m.gauge("grp", "level", "a described gauge").set(2.625);
    std::ostringstream got;
    writeSnapshot(got, m.snapshot());

    EXPECT_EQ(got.str(),
              "grp.counted                                          "
              "1234  # a described counter\n"
              "grp.bare                                                "
              "7\n"
              "grp.level                                           "
              "2.625  # a described gauge\n");
}

// ------------------------------------------------------------- tracer

/** Minimal structural JSON sanity: bracket/brace balance outside
 *  string literals, and a closed final state. */
bool
structurallyValidJson(const std::string &text)
{
    int depth = 0;
    bool inString = false;
    bool escaped = false;
    for (char ch : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (ch == '\\')
                escaped = true;
            else if (ch == '"')
                inString = false;
            continue;
        }
        if (ch == '"')
            inString = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !inString;
}

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(EventTracer, ChromeTraceIsWellFormed)
{
    EventTracer tracer;
    {
        EventTracer::Span outer(&tracer, "outer", "test");
        {
            EventTracer::Span inner(&tracer, "inner", "test");
            tracer.instant(
                "mark", "test",
                {EventTracer::arg("k", uint64_t(7)),
                 EventTracer::arg("quoted",
                                  std::string("a\"b\\c\nd"))});
        }
        uint64_t start = tracer.nowUs();
        tracer.complete("slice", "test", start, 5,
                        {EventTracer::arg("ratio", 0.5)});
    }
    EXPECT_EQ(tracer.eventCount(), 6u); // 2 B + 2 E + i + X

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string text = os.str();

    EXPECT_TRUE(structurallyValidJson(text)) << text;
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    // Every B has a matching E (Perfetto rejects dangling pairs).
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"B\""),
              countOccurrences(text, "\"ph\":\"E\""));
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"X\""), 1u);
    // The quoted arg's control characters were escaped away: no
    // raw quote-breaking bytes survive into the rendered JSON.
    for (char ch : text)
        ASSERT_TRUE(ch == '\n' || ch >= 0x20)
            << "unescaped control byte " << int(ch);
}

TEST(EventTracer, SpoolSurvivesTornTailAndMerges)
{
    const std::string dir = ::testing::TempDir() + "iraw_obs_spool";
    fs::create_directories(dir);
    const std::string path = dir + "/worker.events.jsonl";

    {
        service::SpoolWriter spool;
        ASSERT_TRUE(spool.open(path, /*append=*/false));
        EventTracer worker(
            [&spool](const std::string &event) { spool.append(event); });
        worker.instant("service.fork", "service",
                       {EventTracer::arg("shard", uint64_t(0))});
        uint64_t start = worker.nowUs();
        worker.complete("service.item", "service", start, 3);
        // Every event went to the sink; none stayed in memory.
        EXPECT_EQ(worker.eventCount(), 0u);
        // A torn final frame, as a mid-write SIGKILL would leave it.
        ASSERT_TRUE(spool.appendRaw("IRSP1 4096 deadbeef {\"name\":"));
    }

    EventTracer supervisor;
    supervisor.instant("service.retry", "service");
    supervisor.appendEvents(service::scanSpoolFile(path).payloads);
    // 1 supervisor event + 2 intact worker frames; torn tail skipped.
    EXPECT_EQ(supervisor.eventCount(), 3u);

    std::ostringstream os;
    supervisor.writeChromeTrace(os);
    EXPECT_TRUE(structurallyValidJson(os.str())) << os.str();
    EXPECT_NE(os.str().find("service.fork"), std::string::npos);

    fs::remove_all(dir);
}

// ----------------------------------------------------------- progress

TEST(ProgressMeter, ReportsDoneRetriesAndFinalLine)
{
    std::ostringstream os;
    ProgressMeter meter(os, 0.0); // interval <= 0: every update
    meter.addTotal(4);
    meter.add();
    meter.retry();
    meter.add(3);
    meter.finish();

    const std::string text = os.str();
    EXPECT_NE(text.find("progress: 1/4 (25%)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("1 retries"), std::string::npos) << text;
    EXPECT_NE(text.find("progress: 4/4 (100%)"), std::string::npos)
        << text;
}

// -------------------------------------------- determinism invariant 9

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

std::shared_ptr<TelemetrySession>
fullSession(const std::string &tracePath, std::ostream &progressOut)
{
    TelemetryConfig cfg;
    cfg.chromeTracePath = tracePath;
    cfg.progressIntervalSeconds = 1.0;
    return std::make_shared<TelemetrySession>(cfg, progressOut);
}

TEST(TelemetryInvariance, RunnerResultsIdenticalWithTelemetryOn)
{
    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();

    sim::RunnerConfig plainCfg(2, 2);
    std::vector<sim::SimResult> plain =
        sim::SweepRunner(sim, plainCfg).runConfigs(configs);

    std::ostringstream progress;
    sim::RunnerConfig tracedCfg(2, 2);
    tracedCfg.telemetry = fullSession("unused.json", progress);
    std::vector<sim::SimResult> traced =
        sim::SweepRunner(sim, tracedCfg).runConfigs(configs);

    ASSERT_EQ(traced.size(), plain.size());
    for (size_t i = 0; i < traced.size(); ++i) {
        SCOPED_TRACE("result " + std::to_string(i));
        expectFieldsEqual(traced[i], plain[i]);
    }

    // The run actually produced telemetry — the invariance above is
    // not vacuous.
    EXPECT_GT(tracedCfg.telemetry->tracer()->eventCount(), 0u);
    MetricsRegistry &m = tracedCfg.telemetry->metrics();
    EXPECT_EQ(m.counter("runner", "configs").value(),
              configs.size());
}

TEST(TelemetryInvariance, CrashInjectedShardedRunMergesOneTrace)
{
    const std::string dir =
        ::testing::TempDir() + "iraw_obs_sharded";
    fs::remove_all(dir);

    sim::Simulator sim;
    std::vector<sim::SimConfig> configs = smallConfigs();

    std::vector<sim::SimResult> inprocess;
    for (const sim::SimConfig &cfg : configs)
        inprocess.push_back(sim.run(cfg));

    service::ServiceConfig scfg;
    scfg.workers = 3;
    scfg.spoolDir = dir;
    scfg.backoffMs = 1;
    scfg.retries = 2;
    // Every shard crashes after its first record, once; retries
    // recover from the checkpoint.
    scfg.faults = service::FaultPlan::parse("crash:1");

    std::ostringstream progress;
    service::ServiceSession session(scfg);
    session.setTelemetry(fullSession("unused.json", progress));
    std::vector<sim::SimResult> sharded =
        service::runSharded(sim, session, configs, 2);

    ASSERT_EQ(sharded.size(), inprocess.size());
    for (size_t i = 0; i < sharded.size(); ++i) {
        SCOPED_TRACE("result " + std::to_string(i));
        expectFieldsEqual(sharded[i], inprocess[i]);
    }
    EXPECT_EQ(session.stats().crashes, 4u);

    // One merged trace: crashed workers' event spools were stitched
    // in, so the timeline spans >= 2 distinct pids (supervisor +
    // workers) and names the retries.
    std::ostringstream os;
    session.telemetry()->tracer()->writeChromeTrace(os);
    const std::string text = os.str();
    EXPECT_TRUE(structurallyValidJson(text));
    EXPECT_NE(text.find("service.retry"), std::string::npos);
    EXPECT_NE(text.find("service.fork"), std::string::npos);
    EXPECT_NE(text.find("service.shard"), std::string::npos);

    std::set<std::string> pids;
    std::regex pidRe("\"pid\":(\\d+)");
    for (std::sregex_iterator
             it(text.begin(), text.end(), pidRe),
         end;
         it != end; ++it)
        pids.insert((*it)[1].str());
    EXPECT_GE(pids.size(), 2u) << text;

    // The worker event spools were consumed into the merged trace.
    size_t leftover = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir))
        if (entry.path().string().find(".events.jsonl") !=
            std::string::npos)
            ++leftover;
    EXPECT_EQ(leftover, 0u);

    fs::remove_all(dir);
}

TEST(TelemetrySession, WritesValidManifestAndTrace)
{
    // The two files telemetry= and chrometrace= leave behind, written
    // through the session with the driver's session-level groups.
    const std::string base = ::testing::TempDir() + "iraw_obs_session";
    TelemetryConfig cfg;
    cfg.manifestPath = base + ".manifest.json";
    cfg.chromeTracePath = base + ".trace.json";
    TelemetrySession session(cfg);

    trace::TraceStore store;
    store.acquireSynthetic(trace::profileByName("kernels"), 1, 1000);
    sim::addTraceStoreMetrics(session.metrics(), store.stats());
    service::ServiceStats svc;
    svc.calls = 1;
    sim::addServiceMetrics(session.metrics(), svc);
    {
        EventTracer::Span span(session.tracer().get(), "unit", "test");
    }
    ASSERT_TRUE(session.writeManifest());
    ASSERT_TRUE(session.writeChromeTrace());

    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string manifest = slurp(cfg.manifestPath);
    EXPECT_TRUE(structurallyValidJson(manifest)) << manifest;
    EXPECT_NE(manifest.find("\"trace_store\": {"), std::string::npos)
        << manifest;
    EXPECT_NE(manifest.find("\"misses\": 1"), std::string::npos)
        << manifest;
    EXPECT_NE(manifest.find("\"service\": {"), std::string::npos)
        << manifest;
    const std::string chrome = slurp(cfg.chromeTracePath);
    EXPECT_TRUE(structurallyValidJson(chrome)) << chrome;
    EXPECT_NE(chrome.find("\"unit\""), std::string::npos) << chrome;

    fs::remove(cfg.manifestPath);
    fs::remove(cfg.chromeTracePath);
}

} // namespace
} // namespace obs
} // namespace iraw
