#include "service/supervisor.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/telemetry.hh"
#include "service/shard_manifest.hh"
#include "service/spool.hh"

namespace iraw {
namespace service {

namespace fs = std::filesystem;

void
ServiceStats::fold(const ServiceStats &other)
{
    calls += other.calls;
    shardsTotal += other.shardsTotal;
    shardsCompleted += other.shardsCompleted;
    shardsReused += other.shardsReused;
    shardsFailed += other.shardsFailed;
    records += other.records;
    recordsResumed += other.recordsResumed;
    launches += other.launches;
    retries += other.retries;
    crashes += other.crashes;
    exitFailures += other.exitFailures;
    timeouts += other.timeouts;
    sigterms += other.sigterms;
    sigkills += other.sigkills;
    tornTails += other.tornTails;
    badRecords += other.badRecords;
    spoolErrors += other.spoolErrors;
    failedShards.insert(failedShards.end(), other.failedShards.begin(),
                        other.failedShards.end());
}

uint64_t
ServiceSession::nextCallOrdinal()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _nextCall++;
}

void
ServiceSession::foldStats(const ServiceStats &callStats)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _stats.fold(callStats);
}

ServiceStats
ServiceSession::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

namespace {

/**
 * The supervisor's only clock: monotonic host time for worker
 * timeouts and retry backoff.  Purely operational — it decides WHEN
 * work re-runs, never WHAT the work computes, so it cannot reach
 * simulated state (and the resume determinism test would catch it
 * if it did).
 */
double
nowSeconds()
{
    struct timespec ts;
    // lint-determinism: allow(obs-only-wallclock) supervisor timeout/backoff timer; schedules host processes, never feeds simulated state
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Worker exit codes (anything signal-terminated counts as crash). */
constexpr int kExitOk = 0;
constexpr int kExitSimError = 2;
constexpr int kExitSpoolError = 3;

/**
 * Scan a shard's spool file and validate it belongs to @p shard: a
 * valid header record naming the shard's stem and item count.  A
 * foreign or headerless file yields zero usable items.
 */
struct ShardScan
{
    bool headerOk = false;
    uint64_t items = 0; //!< decodable result records after the header
    uint64_t validBytes = 0;
    bool torn = false;
    bool exists = false;
};

ShardScan
scanShardSpool(const std::string &path, const Shard &shard)
{
    ShardScan out;
    SpoolScan scan = scanSpoolFile(path);
    out.exists = scan.exists;
    out.torn = scan.torn;
    out.validBytes = scan.validBytes;
    if (scan.payloads.empty())
        return out;

    std::string stem;
    uint64_t declaredItems = 0;
    if (!decodeShardHeader(scan.payloads[0], stem, declaredItems) ||
        stem != shard.stem ||
        declaredItems != shard.indices.size())
        return out;
    out.headerOk = true;

    // Count the decodable prefix; a bad record invalidates itself
    // and everything after it (order is the checkpoint).
    sim::SimResult r;
    uint64_t index = 0;
    for (size_t i = 1; i < scan.payloads.size(); ++i) {
        if (!decodeResult(scan.payloads[i], index, r))
            break;
        ++out.items;
    }
    out.items = std::min<uint64_t>(out.items, shard.indices.size());
    return out;
}

/**
 * Per-(shard, attempt) worker event-spool path.  Workers append
 * rendered trace events here (one JSONL line per event, crash-safe);
 * the supervisor merges every attempt's file into the session tracer
 * after the run, which is how worker-side spans — with the worker's
 * own pid — end up in the single chrometrace= output.
 */
std::string
eventSpoolPath(const std::string &spoolDir, const Shard &shard,
               uint64_t attempt)
{
    return spoolDir + "/" + shard.stem + ".a" +
           std::to_string(attempt) + ".events.jsonl";
}

/**
 * Worker body: run the shard's remaining items serially, spooling
 * each result as it lands -- the same per-config Simulator::run loop
 * an in-process chunk runs, plus a checkpoint per item.  Never
 * returns.
 */
[[noreturn]] void
workerMain(const sim::Simulator &sim, const ServiceConfig &cfg,
           const std::vector<sim::SimConfig> &configs,
           const Shard &shard, uint64_t attempt, uint64_t skipItems,
           const std::string &eventPath)
{
    FaultInjector faults(cfg.faults, shard.ordinal, attempt);
    SpoolWriter writer;
    const std::string part = partPath(cfg.spoolDir, shard);

    // Worker-side event tracing (chrometrace=): spool mode writes
    // each event immediately, so even a crashed attempt leaves a
    // mergeable timeline up to the moment it died.
    std::shared_ptr<obs::EventTracer> tracer;
    if (!eventPath.empty()) {
        tracer = std::make_shared<obs::EventTracer>();
        if (!tracer->openSpool(eventPath))
            tracer.reset();
    }
    if (tracer)
        tracer->instant(
            "service.fork", "service",
            {obs::EventTracer::arg("shard", shard.stem),
             obs::EventTracer::arg("attempt", attempt),
             obs::EventTracer::arg("skip", skipItems)});

    if (!writer.open(part, /*append=*/skipItems > 0))
        ::_exit(kExitSpoolError);
    faults.onShardStart(writer);
    if (skipItems == 0 &&
        !writer.append(encodeShardHeader(shard.stem,
                                         shard.indices.size())))
        ::_exit(kExitSpoolError);

    for (size_t j = skipItems; j < shard.indices.size(); ++j) {
        const size_t index = shard.indices[j];
        sim::SimResult result;
        const uint64_t itemStartUs = tracer ? tracer->nowUs() : 0;
        try {
            if (tracer) {
                sim::SimConfig traced = configs[index];
                traced.tracer = tracer;
                result = sim.run(traced);
            } else {
                result = sim.run(configs[index]);
            }
        } catch (const std::exception &e) {
            warn("service worker: shard %s item %zu: %s",
                 shard.stem.c_str(), j, e.what());
            ::_exit(kExitSimError);
        }
        if (tracer)
            tracer->complete(
                "service.item", "service", itemStartUs,
                tracer->nowUs() - itemStartUs,
                {obs::EventTracer::arg("shard", shard.stem),
                 obs::EventTracer::arg(
                     "index", static_cast<uint64_t>(index)),
                 obs::EventTracer::arg("workload",
                                       configs[index].workload)});
        if (!writer.append(encodeResult(index, result)))
            ::_exit(kExitSpoolError);
        if (tracer)
            tracer->instant(
                "service.checkpoint", "service",
                {obs::EventTracer::arg("shard", shard.stem),
                 obs::EventTracer::arg(
                     "records",
                     static_cast<uint64_t>(j - skipItems + 1))});
        faults.onRecordAppended(writer, j - skipItems + 1);
    }

    if (!writer.finalize(donePath(cfg.spoolDir, shard)))
        ::_exit(kExitSpoolError);
    if (tracer)
        tracer->instant(
            "service.finalize", "service",
            {obs::EventTracer::arg("shard", shard.stem),
             obs::EventTracer::arg("attempt", attempt)});
    ::_exit(kExitOk);
}

/** One scheduled (shard, attempt) launch. */
struct PendingJob
{
    size_t shardIdx = 0;
    uint64_t attempt = 0;
    double notBefore = 0.0; //!< backoff gate (nowSeconds scale)
};

/** One live worker process. */
struct RunningJob
{
    size_t shardIdx = 0;
    uint64_t attempt = 0;
    double deadline = 0.0;
    double killAt = 0.0; //!< SIGKILL time once SIGTERM was sent
    bool termSent = false;
    uint64_t startUs = 0; //!< tracer timestamp at fork
};

} // namespace

std::vector<sim::SimResult>
runSharded(const sim::Simulator &sim, ServiceSession &session,
           const std::vector<sim::SimConfig> &configs,
           size_t chunkSize)
{
    const ServiceConfig &cfg = session.config();
    fatalIf(cfg.spoolDir.empty(),
            "service: no spool directory configured");
    fs::create_directories(cfg.spoolDir);

    const uint64_t call = session.nextCallOrdinal();
    ShardManifest manifest = buildManifest(configs, chunkSize, call);

    obs::TelemetrySession *telemetry = session.telemetry().get();
    obs::EventTracer *tracer =
        telemetry ? telemetry->tracer().get() : nullptr;
    obs::ProgressMeter *meter =
        telemetry ? telemetry->progress().get() : nullptr;
    if (meter)
        meter->addTotal(manifest.shards.size());

    ServiceStats stats;
    stats.calls = 1;
    stats.shardsTotal = manifest.shards.size();

    // Resume pass: reuse complete spools, truncate torn partials,
    // and record how much of each incomplete shard is already done.
    std::vector<bool> done(manifest.shards.size(), false);
    std::deque<PendingJob> pending;
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
        const Shard &shard = manifest.shards[s];
        const std::string part = partPath(cfg.spoolDir, shard);
        const std::string full = donePath(cfg.spoolDir, shard);

        if (cfg.resume) {
            ShardScan dscan = scanShardSpool(full, shard);
            if (dscan.headerOk && !dscan.torn &&
                dscan.items == shard.indices.size()) {
                done[s] = true;
                ++stats.shardsReused;
                stats.recordsResumed += dscan.items;
                if (meter)
                    meter->add();
                continue;
            }
            if (dscan.exists) {
                // Stale, foreign or damaged "complete" spool: it
                // cannot be trusted, so it reruns from scratch.
                ++stats.badRecords;
                fs::remove(full);
            }
        } else {
            // Fresh run: never trust leftovers under our names.
            fs::remove(full);
            fs::remove(part);
        }

        if (cfg.resume) {
            ShardScan pscan = scanShardSpool(part, shard);
            if (pscan.torn && pscan.headerOk) {
                ++stats.tornTails;
                fs::resize_file(part, pscan.validBytes);
            }
            if (!pscan.headerOk && pscan.exists) {
                ++stats.badRecords;
                fs::remove(part);
            }
            // A header-ok partial is a checkpoint: launch() below
            // re-scans it, skips its records and credits them as
            // resumed.
        }
        pending.push_back({s, 0, 0.0});
    }

    const unsigned workers = std::max(1u, cfg.workers);
    std::vector<uint64_t> attemptsLeft(manifest.shards.size(),
                                       cfg.retries);
    // Checkpointed records already credited to recordsResumed, per
    // shard: each recovered record counts exactly once, whether it
    // came from a previous run (resume=) or a previous attempt
    // (in-session retry).
    std::vector<uint64_t> credited(manifest.shards.size(), 0);
    std::map<pid_t, RunningJob> running;

    auto launch = [&](const PendingJob &job) {
        const Shard &shard = manifest.shards[job.shardIdx];
        // Re-scan before every launch: a crashed attempt's partial
        // spool is a checkpoint, not garbage — in-session retries
        // resume from it exactly like resume= does across runs.
        const std::string part = partPath(cfg.spoolDir, shard);
        ShardScan pscan = scanShardSpool(part, shard);
        if (pscan.torn && pscan.headerOk) {
            ++stats.tornTails;
            fs::resize_file(part, pscan.validBytes);
        }
        uint64_t skip = pscan.headerOk ? pscan.items : 0;
        if (!pscan.headerOk && pscan.exists)
            fs::remove(part);
        if (skip > credited[job.shardIdx]) {
            stats.recordsResumed += skip - credited[job.shardIdx];
            credited[job.shardIdx] = skip;
        }

        const std::string eventPath =
            tracer ? eventSpoolPath(cfg.spoolDir, shard,
                                    job.attempt)
                   : std::string();

        pid_t pid = ::fork();
        fatalIf(pid < 0, "service: fork failed: %s",
                std::strerror(errno));
        if (pid == 0)
            workerMain(sim, cfg, configs, shard, job.attempt, skip,
                       eventPath);

        ++stats.launches;
        if (job.attempt > 0)
            ++stats.retries;
        RunningJob run;
        run.shardIdx = job.shardIdx;
        run.attempt = job.attempt;
        run.deadline = nowSeconds() + cfg.timeoutSeconds;
        run.startUs = tracer ? tracer->nowUs() : 0;
        running.emplace(pid, run);
    };

    auto scheduleRetryOrFail = [&](size_t shardIdx,
                                   uint64_t failedAttempt) {
        const Shard &shard = manifest.shards[shardIdx];
        if (attemptsLeft[shardIdx] > 0) {
            --attemptsLeft[shardIdx];
            // Capped exponential backoff, deterministic in attempt.
            double delayMs = static_cast<double>(cfg.backoffMs) *
                             static_cast<double>(1ull << std::min<
                                 uint64_t>(failedAttempt, 16));
            delayMs = std::min(delayMs, 10000.0);
            pending.push_back({shardIdx, failedAttempt + 1,
                               nowSeconds() + delayMs / 1000.0});
            if (tracer)
                tracer->instant(
                    "service.retry", "service",
                    {obs::EventTracer::arg("shard", shard.stem),
                     obs::EventTracer::arg("attempt",
                                           failedAttempt + 1)});
            if (meter)
                meter->retry();
            return;
        }
        ++stats.shardsFailed;
        stats.failedShards.push_back(shard.stem);
        warn("service: shard %s failed after %llu attempt(s); its "
             "points stay zeroed (service.failed_shards)",
             shard.stem.c_str(),
             static_cast<unsigned long long>(failedAttempt + 1));
    };

    while (!pending.empty() || !running.empty()) {
        // Launch every eligible job there is a worker slot for.
        bool launched = false;
        for (size_t scan = 0;
             running.size() < workers && scan < pending.size();) {
            if (pending[scan].notBefore <= nowSeconds()) {
                PendingJob job = pending[scan];
                pending.erase(pending.begin() +
                              static_cast<long>(scan));
                launch(job);
                launched = true;
            } else {
                ++scan;
            }
        }

        // Reap.
        bool reaped = false;
        for (auto it = running.begin(); it != running.end();) {
            int status = 0;
            pid_t pid = ::waitpid(it->first, &status, WNOHANG);
            if (pid == 0) {
                ++it;
                continue;
            }
            RunningJob job = it->second;
            it = running.erase(it);
            reaped = true;

            const Shard &shard = manifest.shards[job.shardIdx];
            bool ok = WIFEXITED(status) &&
                      WEXITSTATUS(status) == kExitOk &&
                      fs::exists(donePath(cfg.spoolDir, shard));
            if (tracer)
                tracer->complete(
                    "service.shard", "service", job.startUs,
                    tracer->nowUs() - job.startUs,
                    {obs::EventTracer::arg("shard", shard.stem),
                     obs::EventTracer::arg("attempt", job.attempt),
                     obs::EventTracer::arg(
                         "outcome",
                         std::string(ok ? "ok"
                                     : WIFSIGNALED(status)
                                         ? "crash"
                                         : "exit_failure"))});
            if (ok) {
                done[job.shardIdx] = true;
                ++stats.shardsCompleted;
                if (meter)
                    meter->add();
                continue;
            }
            if (WIFSIGNALED(status)) {
                ++stats.crashes;
            } else {
                ++stats.exitFailures;
                if (WIFEXITED(status) &&
                    WEXITSTATUS(status) == kExitSpoolError)
                    ++stats.spoolErrors;
            }
            scheduleRetryOrFail(job.shardIdx, job.attempt);
        }

        // Timeout escalation: SIGTERM at the deadline, SIGKILL after
        // the grace window (a worker ignoring SIGTERM — the
        // sleep-forever fault — still dies).
        double now = nowSeconds();
        for (auto &[pid, job] : running) {
            if (!job.termSent && now >= job.deadline) {
                ++stats.timeouts;
                ++stats.sigterms;
                if (tracer)
                    tracer->instant(
                        "service.timeout", "service",
                        {obs::EventTracer::arg(
                            "shard",
                            manifest.shards[job.shardIdx].stem)});
                ::kill(pid, SIGTERM);
                job.termSent = true;
                job.killAt = now + cfg.killGraceSeconds;
            } else if (job.termSent && job.killAt > 0.0 &&
                       now >= job.killAt) {
                ++stats.sigkills;
                if (tracer)
                    tracer->instant(
                        "service.sigkill", "service",
                        {obs::EventTracer::arg(
                            "shard",
                            manifest.shards[job.shardIdx].stem)});
                ::kill(pid, SIGKILL);
                job.killAt = 0.0; // sent once; waitpid reaps it
            }
        }

        if (meter)
            meter->tick(running.size());

        if (!launched && !reaped && !running.empty())
            ::usleep(2000);
        else if (!launched && !reaped)
            ::usleep(500); // backoff gate not yet open
    }

    // Merge in fixed manifest order from the completed spools — the
    // single reduction path shared by fresh, resumed and reused
    // shards, so execution history cannot leak into the output.
    const uint64_t mergeStartUs = tracer ? tracer->nowUs() : 0;
    std::vector<sim::SimResult> results(configs.size());
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
        if (!done[s])
            continue;
        const Shard &shard = manifest.shards[s];
        SpoolScan scan =
            scanSpoolFile(donePath(cfg.spoolDir, shard));
        bool valid = !scan.torn && !scan.payloads.empty();
        std::string stem;
        uint64_t items = 0;
        valid = valid &&
                decodeShardHeader(scan.payloads[0], stem, items) &&
                stem == shard.stem && items == shard.indices.size() &&
                scan.payloads.size() == shard.indices.size() + 1;
        uint64_t index = 0;
        for (size_t i = 1; valid && i < scan.payloads.size(); ++i) {
            sim::SimResult r;
            if (!decodeResult(scan.payloads[i], index, r) ||
                index >= configs.size()) {
                valid = false;
                break;
            }
            // The config is re-attached locally, not transported:
            // the manifest fingerprint guarantees it matches.
            r.config = configs[index];
            results[index] = std::move(r);
            ++stats.records;
        }
        if (!valid) {
            ++stats.badRecords;
            ++stats.shardsFailed;
            stats.failedShards.push_back(shard.stem);
            warn("service: completed spool for shard %s failed "
                 "validation; its points stay zeroed",
                 shard.stem.c_str());
            for (size_t idx : shard.indices)
                results[idx] = sim::SimResult();
        }
    }

    if (tracer)
        tracer->complete(
            "service.merge", "service", mergeStartUs,
            tracer->nowUs() - mergeStartUs,
            {obs::EventTracer::arg("shards",
                                   uint64_t(manifest.shards.size())),
             obs::EventTracer::arg("records", stats.records)});

    // Stitch the workers' event spools into the session tracer.  A
    // crashed attempt's file is still mergeable (workers emit only
    // self-contained X/i events, one whole line per write), so the
    // merged timeline shows the aborted attempt next to the retry.
    if (tracer) {
        for (const Shard &shard : manifest.shards) {
            for (uint64_t a = 0; a <= cfg.retries; ++a) {
                const std::string path =
                    eventSpoolPath(cfg.spoolDir, shard, a);
                std::error_code ec;
                if (!fs::exists(path, ec))
                    continue;
                tracer->appendEventsFromFile(path);
                fs::remove(path, ec);
            }
        }
    }

    session.foldStats(stats);
    return results;
}

} // namespace service
} // namespace iraw
