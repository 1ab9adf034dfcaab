#include "sim/scenario.hh"

#include <algorithm>
#include <filesystem>
#include <iostream>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/telemetry.hh"
#include "sim/simulation.hh"
#include "sim/stats_report.hh"

namespace iraw {
namespace sim {

ScenarioContext::ScenarioContext(
    const OptionMap &opts, std::ostream &out,
    std::shared_ptr<trace::TraceStore> store,
    std::shared_ptr<obs::TelemetrySession> telemetry)
    : _opts(opts), _out(out), _telemetry(std::move(telemetry))
{
    // Parse the shared overrides eagerly so every scenario binary
    // accepts them (and so they never show up as "unused").
    // Count-valued options go through getUint, which rejects
    // negative and out-of-range values instead of wrapping them
    // (seeds=-1 used to become 4294967295 suites).
    uint64_t insts = opts.getUint("insts", 60000);
    uint64_t seeds = opts.getUint("seeds", 1);
    fatalIf(seeds > 65536, "seeds=%llu out of range [0, 65536]",
            static_cast<unsigned long long>(seeds));
    _settings.warmup = opts.getUint("warmup", 40000);
    uint64_t threads = opts.getUint("threads", 0);
    fatalIf(threads > 1024, "threads=%llu out of range [0, 1024]",
            static_cast<unsigned long long>(threads));
    _settings.threads = static_cast<unsigned>(threads);
    bool quick = opts.getBool("quick", false);
    _settings.tracePath = opts.getString("trace", "");
    if (!_settings.tracePath.empty()) {
        // A real-workload trace file replaces the synthetic suite.
        SuiteEntry entry;
        entry.workload = "file";
        entry.tracePath = _settings.tracePath;
        entry.instructions = insts;
        _settings.suite = {entry};
    } else if (quick) {
        _settings.suite = quickSuite(insts);
    } else {
        _settings.suite =
            defaultSuite(insts, static_cast<uint32_t>(seeds));
    }

    _settings.profile = opts.getBool("profile", false);
    _settings.traceStore = opts.getBool("tracestore", true);
    _settings.traceCacheDir = opts.getString("tracecache", "");
    _settings.storeBytes =
        opts.getUint("storebytes", _settings.storeBytes);
    if (_settings.traceStore) {
        if (store) {
            _store = std::move(store);
        } else {
            trace::TraceStore::Config storeCfg;
            storeCfg.byteCap = _settings.storeBytes;
            storeCfg.diskDir = _settings.traceCacheDir;
            _store = std::make_shared<trace::TraceStore>(storeCfg);
        }
    } else if (!_settings.traceCacheDir.empty()) {
        // The disk layer lives inside the store; tracestore=0 wins.
        warn("tracecache= ignored because tracestore=0");
    }

    // Sharded service mode (workers=): every sweep in the scenario
    // runs under the fault-tolerant multi-process supervisor.
    uint64_t workers = opts.getUint("workers", 0);
    fatalIf(workers > 256, "workers=%llu out of range [0, 256]",
            static_cast<unsigned long long>(workers));
    double timeout = opts.getDouble("timeout", 300.0);
    uint64_t retries = opts.getUint("retries", 2);
    uint64_t backoff = opts.getUint("backoff", 250);
    std::string spoolOpt = opts.getString("spool", "");
    std::string resumeOpt = opts.getString("resume", "");
    std::string faultSpec = opts.getString("faultinject", "");
    if (workers > 0) {
        fatalIf(timeout <= 0.0, "timeout=%g must be positive",
                timeout);
        fatalIf(retries > 64, "retries=%llu out of range [0, 64]",
                static_cast<unsigned long long>(retries));
        service::ServiceConfig scfg;
        scfg.workers = static_cast<unsigned>(workers);
        scfg.timeoutSeconds = timeout;
        scfg.retries = static_cast<unsigned>(retries);
        scfg.backoffMs = backoff;
        // Scale the SIGTERM->SIGKILL grace with short timeouts so
        // escalation tests stay fast; cap at one second.
        scfg.killGraceSeconds =
            std::min(1.0, std::max(0.05, timeout / 4.0));
        if (!resumeOpt.empty()) {
            if (!spoolOpt.empty() && spoolOpt != resumeOpt)
                warn("spool= ignored: resume=%s names the spool "
                     "directory", resumeOpt.c_str());
            scfg.spoolDir = resumeOpt;
            scfg.resume = true;
        } else if (!spoolOpt.empty()) {
            scfg.spoolDir = spoolOpt;
        } else {
            scfg.spoolDir =
                "iraw-spool-" + std::to_string(::getpid());
            _spoolIsTemp = true;
        }
        if (!faultSpec.empty())
            scfg.faults = service::FaultPlan::parse(faultSpec);
        _service = std::make_shared<service::ServiceSession>(
            std::move(scfg));
    } else {
        for (const char *key : {"timeout", "retries", "backoff",
                                "spool", "resume", "faultinject"})
            if (opts.has(key))
                warn("%s= ignored because workers=0 (in-process "
                     "run)", key);
    }

    // Attach the telemetry session to the producers this context
    // builds.  Everything downstream treats null as "off".
    if (_telemetry) {
        if (_store && _telemetry->tracer())
            _store->setTracer(_telemetry->tracer());
        if (_service)
            _service->setTelemetry(_telemetry);
    }
}

trace::TraceBufferPtr
ScenarioContext::materializeTrace(const std::string &workload,
                                  uint64_t seed, uint64_t length)
{
    if (!_settings.tracePath.empty()) {
        trace::TraceBufferPtr buffer =
            _store ? _store->acquireFile(_settings.tracePath)
                   : trace::materializeFile(_settings.tracePath);
        // A synthetic buffer always holds `length` ops; demand the
        // same of a file so the run cannot silently truncate.
        fatalIf(buffer->records() < length,
                "trace '%s' has %llu records but this scenario "
                "needs %llu; lower insts= or supply a longer trace",
                _settings.tracePath.c_str(),
                static_cast<unsigned long long>(buffer->records()),
                static_cast<unsigned long long>(length));
        return buffer;
    }
    const trace::WorkloadProfile &profile =
        trace::profileByName(workload);
    return _store
               ? _store->acquireSynthetic(profile, seed, length)
               : trace::materializeSynthetic(profile, seed, length);
}

uint32_t
ScenarioContext::populationChips(uint32_t def)
{
    uint64_t chips = _opts.getUint("chips", def);
    fatalIf(chips == 0 || chips > 65536,
            "chips=%llu out of range [1, 65536]",
            static_cast<unsigned long long>(chips));
    if (_populationCap > 0 && chips > _populationCap) {
        _out << "note: scenario=all caps chips=" << chips << " to "
             << _populationCap
             << " (run the scenario standalone for larger "
                "populations)\n";
        chips = _populationCap;
    }
    return static_cast<uint32_t>(chips);
}

const Simulator &
ScenarioContext::simulator()
{
    if (!_sim) {
        _sim = std::make_unique<Simulator>();
        _sim->setTraceStore(_store);
    }
    return *_sim;
}

RunnerConfig
ScenarioContext::runnerConfig() const
{
    RunnerConfig cfg;
    cfg.threads = _settings.threads;
    cfg.service = _service;
    cfg.telemetry = _telemetry;
    return cfg;
}

SweepRunner
ScenarioContext::runner()
{
    return SweepRunner(simulator(), runnerConfig());
}

SweepConfig
ScenarioContext::sweepConfig() const
{
    SweepConfig cfg;
    cfg.suite = _settings.suite;
    cfg.warmupInstructions = _settings.warmup;
    return cfg;
}

MachineAtVcc
ScenarioContext::runMachine(circuit::MilliVolts vcc,
                            mechanism::IrawMode mode)
{
    return runner().runMachine(sweepConfig(), vcc, mode);
}

std::vector<MachineAtVcc>
ScenarioContext::runMachines(const std::vector<MachinePoint> &points)
{
    return runner().runMachines(sweepConfig(), points);
}

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(Scenario scenario)
{
    panicIf(scenario.fn == nullptr, "scenario '%s' has no body",
            scenario.name.c_str());
    MutexLock lock(_mutex);
    auto [it, inserted] =
        _scenarios.emplace(scenario.name, std::move(scenario));
    panicIf(!inserted, "duplicate scenario name '%s'",
            it->first.c_str());
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    MutexLock lock(_mutex);
    auto it = _scenarios.find(name);
    return it == _scenarios.end() ? nullptr : &it->second;
}

std::vector<const Scenario *>
ScenarioRegistry::all() const
{
    MutexLock lock(_mutex);
    std::vector<const Scenario *> out;
    out.reserve(_scenarios.size());
    for (const auto &[name, scenario] : _scenarios)
        out.push_back(&scenario);
    return out;
}

ScenarioRegistrar::ScenarioRegistrar(const char *name,
                                     const char *description,
                                     ScenarioFn fn)
{
    ScenarioRegistry::instance().add(
        Scenario{name, description, fn});
}

namespace {

void
listScenarios(std::ostream &out)
{
    out << "registered scenarios:\n";
    for (const Scenario *s : ScenarioRegistry::instance().all())
        out << "  " << s->name << "\n      " << s->description
            << "\n";
}

/** Levenshtein edit distance (typo suggestions). */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t next = std::min(
                {row[j] + 1, row[j - 1] + 1,
                 diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = row[j];
            row[j] = next;
        }
    }
    return row[b.size()];
}

/** The nearest candidate within a sane typo radius, or "". */
std::string
nearestName(const std::string &name,
            const std::vector<std::string> &candidates)
{
    std::string best;
    size_t bestDist = std::max<size_t>(2, name.size() / 3) + 1;
    for (const std::string &candidate : candidates) {
        size_t dist = editDistance(name, candidate);
        if (dist < bestDist) {
            bestDist = dist;
            best = candidate;
        }
    }
    return best;
}

/** Option keys named `key=` in @p text (scenario descriptions list
 *  their own options that way). */
void
collectOptionKeys(const std::string &text,
                  std::vector<std::string> &out)
{
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '=')
            continue;
        size_t start = i;
        while (start > 0 && text[start - 1] >= 'a' &&
               text[start - 1] <= 'z')
            --start;
        if (start < i)
            out.push_back(text.substr(start, i - start));
    }
}

/**
 * The documented option set for an invocation: the shared driver
 * options (docs/OPTIONS.md) plus every `key=` each scenario's
 * registry description mentions.
 */
std::vector<std::string>
documentedOptions(const std::vector<const Scenario *> &scenarios)
{
    std::vector<std::string> keys = {
        "scenario",   "list",       "threads",    "insts",
        "seeds",      "quick",      "warmup",     "trace",
        "tracestore", "tracecache", "storebytes", "storestats",
        "profile",    "workers",    "timeout",    "retries",
        "backoff",    "spool",      "resume",     "faultinject",
        "telemetry",  "chrometrace", "progress"};
    for (const Scenario *s : scenarios)
        collectOptionKeys(s->description, keys);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

} // namespace

int
scenarioMain(int argc, const char *const *argv)
{
    OptionMap opts = OptionMap::parse(argc, argv);
    const ScenarioRegistry &registry = ScenarioRegistry::instance();

    if (opts.getBool("list", false)) {
        listScenarios(std::cout);
        return 0;
    }

    std::string which = opts.getString("scenario", "");
    std::vector<const Scenario *> toRun;
    if (which == "all") {
        toRun = registry.all();
    } else if (!which.empty()) {
        const Scenario *s = registry.find(which);
        if (!s) {
            std::vector<std::string> names;
            for (const Scenario *known : registry.all())
                names.push_back(known->name);
            std::cerr << "unknown scenario '" << which << "'";
            std::string suggestion = nearestName(which, names);
            if (!suggestion.empty())
                std::cerr << "; did you mean '" << suggestion
                          << "'?";
            std::cerr << "\n";
            listScenarios(std::cerr);
            return 1;
        }
        toRun = {s};
    } else if (registry.all().size() == 1) {
        // Single-scenario binaries run their scenario by default.
        toRun = registry.all();
    } else {
        std::cerr << "usage: scenario=<name>|all [list=1] "
                     "[threads=N] "
                     "[insts=N] [seeds=N] [quick=1] "
                     "[warmup=N] [trace=file.trc] [tracestore=0|1] "
                     "[tracecache=dir] [storebytes=N] "
                     "[storestats=1] [profile=0|1] "
                     "[workers=N] [timeout=S] [retries=N] "
                     "[backoff=MS] [spool=dir] [resume=dir] "
                     "[faultinject=spec] "
                     "[telemetry=out.json] [chrometrace=out.json] "
                     "[progress=S] "
                     "[chips=N] [sigma=S] [chipseed=N] "
                     "[policy=static|oracle|reactive] [epoch=N] "
                     "[switchcycles=N] [switchenergy=E] "
                     "[floor=mV]\n";
        listScenarios(std::cerr);
        return 1;
    }

    // One telemetry session for the whole invocation (the manifest
    // and trace merge every scenario when scenario=all).  All of its
    // output goes to stderr and side files; stdout stays
    // byte-identical to a telemetry-off run (invariant 9).
    obs::TelemetryConfig telemetryCfg;
    telemetryCfg.manifestPath = opts.getString("telemetry", "");
    telemetryCfg.chromeTracePath = opts.getString("chrometrace", "");
    telemetryCfg.progressIntervalSeconds =
        opts.getDouble("progress", 0.0);
    std::shared_ptr<obs::TelemetrySession> telemetry;
    if (telemetryCfg.enabled())
        telemetry =
            std::make_shared<obs::TelemetrySession>(telemetryCfg);

    // One trace store for the whole process: scenario=all shares
    // materialized traces across scenarios instead of starting each
    // one cold.
    std::shared_ptr<trace::TraceStore> sharedStore;
    trace::TraceStore::Stats prevStats;
    service::ServiceStats serviceTotal;
    bool sawService = false;
    for (const Scenario *s : toRun) {
        if (toRun.size() > 1)
            std::cout << "==== " << s->name << " ====\n";
        int rc = 0;
        try {
            ScenarioContext ctx(opts, std::cout, sharedStore,
                                telemetry);
            sharedStore = ctx.traceStore();
            // Multi-scenario runs bound Monte Carlo population
            // sizes so scenario=all stays CI-sized; standalone
            // runs are uncapped.
            if (toRun.size() > 1)
                ctx.setPopulationCap(4);
            {
                obs::EventTracer::Span span(
                    telemetry ? telemetry->tracer().get() : nullptr,
                    s->name, "scenario");
                rc = s->fn(ctx);
            }
            if (opts.getBool("storestats", false) &&
                ctx.traceStore()) {
                // Report this scenario's own traffic: the store is
                // shared, so event counters must be deltaed against
                // the previous scenarios (levels stay absolute).
                trace::TraceStore::Stats stats =
                    ctx.traceStore()->stats();
                trace::TraceStore::Stats delta = stats;
                delta.hits -= prevStats.hits;
                delta.misses -= prevStats.misses;
                delta.diskHits -= prevStats.diskHits;
                delta.diskBadFiles -= prevStats.diskBadFiles;
                delta.evictions -= prevStats.evictions;
                prevStats = stats;
                writeTraceStoreReport(std::cout, delta);
            }
            if (ctx.serviceSession()) {
                // Service accounting goes to stderr: stdout must
                // stay byte-identical to an in-process run
                // (invariant 8).
                service::ServiceStats stats =
                    ctx.serviceSession()->stats();
                serviceTotal.fold(stats);
                sawService = true;
                writeServiceReport(std::cerr, stats);
                const std::string &dir =
                    ctx.serviceSession()->config().spoolDir;
                if (rc == 0 && stats.shardsFailed == 0 &&
                    ctx.spoolIsTemp()) {
                    std::error_code ec;
                    std::filesystem::remove_all(dir, ec);
                } else {
                    std::cerr << "service: spool kept at '" << dir
                              << "'"
                              << (stats.shardsFailed
                                      ? " (rerun with resume= to "
                                        "retry failed shards)"
                                      : "")
                              << "\n";
                }
            }
        } catch (const FatalError &e) {
            std::cerr << "scenario '" << s->name
                      << "' failed: " << e.what() << "\n";
            return 1;
        }
        if (rc != 0)
            return rc;
    }

    if (telemetry) {
        // Fold the session-level producers into the registry (the
        // runner folds its own runner./perf./adapt. counters per
        // wave): trace-store levels are absolute, service counters
        // are the totals across scenarios.
        obs::MetricsRegistry &m = telemetry->metrics();
        if (sharedStore) {
            trace::TraceStore::Stats ts = sharedStore->stats();
            m.counter("trace_store", "hits").set(ts.hits);
            m.counter("trace_store", "misses").set(ts.misses);
            m.counter("trace_store", "disk_hits").set(ts.diskHits);
            m.counter("trace_store", "disk_bad_files")
                .set(ts.diskBadFiles);
            m.counter("trace_store", "stale_tmp_files")
                .set(ts.staleTmpFiles);
            m.counter("trace_store", "evictions").set(ts.evictions);
            m.counter("trace_store", "buffers").set(ts.buffers);
            m.counter("trace_store", "bytes_in_use")
                .set(ts.bytesInUse);
            m.counter("trace_store", "byte_cap").set(ts.byteCap);
        }
        if (sawService) {
            m.counter("service", "calls").set(serviceTotal.calls);
            m.counter("service", "shards")
                .set(serviceTotal.shardsTotal);
            m.counter("service", "shards_completed")
                .set(serviceTotal.shardsCompleted);
            m.counter("service", "shards_reused")
                .set(serviceTotal.shardsReused);
            m.counter("service", "failed_shards")
                .set(serviceTotal.shardsFailed);
            m.counter("service", "records")
                .set(serviceTotal.records);
            m.counter("service", "records_resumed")
                .set(serviceTotal.recordsResumed);
            m.counter("service", "launches")
                .set(serviceTotal.launches);
            m.counter("service", "retries")
                .set(serviceTotal.retries);
            m.counter("service", "crashes")
                .set(serviceTotal.crashes);
            m.counter("service", "exit_failures")
                .set(serviceTotal.exitFailures);
            m.counter("service", "timeouts")
                .set(serviceTotal.timeouts);
            m.counter("service", "sigterms")
                .set(serviceTotal.sigterms);
            m.counter("service", "sigkills")
                .set(serviceTotal.sigkills);
            m.counter("service", "torn_tails")
                .set(serviceTotal.tornTails);
            m.counter("service", "bad_records")
                .set(serviceTotal.badRecords);
            m.counter("service", "spool_errors")
                .set(serviceTotal.spoolErrors);
        }
        if (telemetry->progress())
            telemetry->progress()->finish();
        if (!telemetryCfg.chromeTracePath.empty()) {
            if (telemetry->writeChromeTrace())
                std::cerr << "telemetry: chrome trace ("
                          << telemetry->tracer()->eventCount()
                          << " events) written to '"
                          << telemetryCfg.chromeTracePath << "'\n";
            else
                std::cerr << "telemetry: failed to write chrome "
                             "trace '"
                          << telemetryCfg.chromeTracePath << "'\n";
        }
        if (!telemetryCfg.manifestPath.empty()) {
            if (telemetry->writeManifest())
                std::cerr << "telemetry: run manifest written to '"
                          << telemetryCfg.manifestPath << "'\n";
            else
                std::cerr << "telemetry: failed to write run "
                             "manifest '"
                          << telemetryCfg.manifestPath << "'\n";
        }
    }

    std::vector<std::string> unused = opts.unusedKeys();
    if (!unused.empty()) {
        std::vector<std::string> known = documentedOptions(toRun);
        for (const std::string &key : unused) {
            std::cerr << "warning: unused option '" << key << "'";
            std::string suggestion = nearestName(key, known);
            if (!suggestion.empty())
                std::cerr << "; did you mean '" << suggestion
                          << "='?";
            std::cerr << "\n";
        }
        std::cerr << "documented options for this invocation:";
        for (const std::string &key : known)
            std::cerr << " " << key << "=";
        std::cerr << "\n";
    }
    return 0;
}

} // namespace sim
} // namespace iraw
