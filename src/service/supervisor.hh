/**
 * @file
 * The sharded, fault-tolerant experiment driver (ROADMAP item 5).
 *
 * Layer shape:
 *
 *     scenario (workers=)                 src/sim/scenario.*
 *       -> SweepRunner::runConfigs        src/sim/runner.*
 *            -> service::runSharded       (this file)
 *                 buildManifest           deterministic shards
 *                 fork worker per shard   COW-shares the Simulator
 *                 worker: run items serially through
 *                         Simulator::run, spool each record
 *                 supervise: waitpid crash detection, timeout=
 *                         SIGTERM -> SIGKILL escalation, retries=
 *                         with capped exponential backoff=
 *                 merge: decode spools in manifest order
 *
 * Crash safety is structural, not best-effort: a record is durable
 * only once its whole CRC-framed line is on disk, a shard is
 * complete only once its spool is atomically renamed, and a resumed
 * call (resume=) rebuilds the same manifest, truncates any torn
 * tail, re-enqueues only the missing work and merges in manifest
 * order — so interrupted-then-resumed output is byte-identical to an
 * uninterrupted single-process run (determinism invariant 8,
 * docs/ARCHITECTURE.md).
 *
 * Degradation is explicit: a shard that exhausts its retries does
 * not kill the sweep; its result slots stay zeroed and the
 * `service.failed_shards` accounting names it in the report.
 */

#ifndef IRAW_SERVICE_SUPERVISOR_HH
#define IRAW_SERVICE_SUPERVISOR_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/fault_injector.hh"
#include "sim/simulation.hh"

namespace iraw {

namespace obs {
class TelemetrySession;
}

namespace service {

/** Knobs of the sharded driver (scenario options in parens). */
struct ServiceConfig
{
    /** Concurrent worker processes (workers=); 0 behaves as 1. */
    unsigned workers = 2;

    /** Per-shard wall-clock budget in seconds (timeout=); a shard
     *  past it gets SIGTERM, then SIGKILL after the grace window. */
    double timeoutSeconds = 300.0;

    /** Relaunch attempts after a shard fails (retries=); the first
     *  launch is not a retry, so a shard runs at most retries+1
     *  times. */
    unsigned retries = 2;

    /** Base retry delay in milliseconds (backoff=); doubles per
     *  attempt, capped at 10 s. */
    uint64_t backoffMs = 250;

    /** Spool directory (spool= / resume=); must be set. */
    std::string spoolDir;

    /** Reuse spool files already in spoolDir (resume=). */
    bool resume = false;

    /** Worker-side fault plan (faultinject=). */
    FaultPlan faults;

    /** Seconds between SIGTERM and SIGKILL on timeout. */
    double killGraceSeconds = 1.0;
};

/** Accounting of one or more service calls (the service.* report
 *  group; all counters fold additively across calls). */
struct ServiceStats
{
    uint64_t calls = 0;
    uint64_t shardsTotal = 0;
    uint64_t shardsCompleted = 0; //!< by a worker, this session
    uint64_t shardsReused = 0;    //!< complete spool found on resume
    uint64_t shardsFailed = 0;    //!< retries exhausted
    uint64_t records = 0;         //!< result records merged
    uint64_t recordsResumed = 0;  //!< records recovered from spools
    uint64_t launches = 0;        //!< worker processes forked
    uint64_t retries = 0;         //!< relaunches after a failure
    uint64_t crashes = 0;         //!< workers that died on a signal
    uint64_t exitFailures = 0;    //!< workers with nonzero exit
    uint64_t timeouts = 0;        //!< shards past their deadline
    uint64_t sigterms = 0;
    uint64_t sigkills = 0;
    uint64_t tornTails = 0;       //!< truncated partial frames
    uint64_t badRecords = 0;      //!< CRC-valid frames that failed to
                                  //!< decode, or stale spools rejected
    uint64_t spoolErrors = 0;     //!< worker spool-write failures

    /** Stems of the shards that exhausted retries, in manifest
     *  order (the explicit service.failed_shards accounting). */
    std::vector<std::string> failedShards;

    void fold(const ServiceStats &other);
};

/**
 * Shared state of one scenario invocation's service mode: the
 * configuration, the per-call ordinal counter (so repeated identical
 * runConfigs calls spool under distinct, reproducible names) and the
 * accumulated accounting.  Thread-safe; attached to RunnerConfig and
 * shared by every runner the scenario builds.
 */
class ServiceSession
{
  public:
    explicit ServiceSession(ServiceConfig cfg) : _cfg(std::move(cfg))
    {}

    const ServiceConfig &config() const { return _cfg; }

    /** The next runConfigs call's ordinal (0, 1, 2, ... in call
     *  order — deterministic, so resume rebuilds the same names). */
    uint64_t nextCallOrdinal();

    void foldStats(const ServiceStats &callStats);
    ServiceStats stats() const;

    /**
     * Attach the scenario's telemetry session: the supervisor
     * records shard lifecycle spans and retry/timeout instants on
     * its tracer, workers spool their own event files (merged back
     * after the run), and shard progress feeds its meter.  Must be
     * set before the first runSharded call; null = telemetry off.
     */
    void
    setTelemetry(std::shared_ptr<obs::TelemetrySession> telemetry)
    {
        _telemetry = std::move(telemetry);
    }

    const std::shared_ptr<obs::TelemetrySession> &
    telemetry() const
    {
        return _telemetry;
    }

  private:
    ServiceConfig _cfg;
    std::shared_ptr<obs::TelemetrySession> _telemetry;
    mutable std::mutex _mutex;
    uint64_t _nextCall = 0;
    ServiceStats _stats;
};

/**
 * Execute @p configs under the sharded supervisor and return results
 * in input order, bitwise identical to
 * `SweepRunner::runConfigs` without a service attached (host wall
 * time excepted).  Failed shards leave default-constructed results
 * at their indices and are named in the session's accounting.
 */
std::vector<sim::SimResult>
runSharded(const sim::Simulator &sim, ServiceSession &session,
           const std::vector<sim::SimConfig> &configs,
           size_t chunkSize);

} // namespace service
} // namespace iraw

#endif // IRAW_SERVICE_SUPERVISOR_HH
