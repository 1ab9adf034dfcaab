/**
 * @file
 * Scenario registry: every figure/table bench and example registers
 * itself here and runs through one driver entry point
 * (scenarioMain), so all of them share the same CLI overrides
 * (threads=, insts=, seeds=, quick=, warmup=, trace=,
 * tracestore=, tracecache=, storebytes=, storestats=, profile=, the
 * sharded-service options workers=, timeout=, retries=, backoff=,
 * spool=, resume=, faultinject=, the telemetry options telemetry=,
 * chrometrace=, progress=, and for the Monte Carlo population
 * scenarios chips=, sigma=, syssigma=, chipseed=) and the same
 * parallel sweep runner instead of carrying near-duplicate main()s.
 *
 * See docs/OPTIONS.md for the consolidated option reference.
 */

#ifndef IRAW_SIM_SCENARIO_HH
#define IRAW_SIM_SCENARIO_HH

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/thread_annotations.hh"
#include "service/supervisor.hh"
#include "sim/runner.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace sim {

/** Suite/size settings shared by the simulation-driven scenarios. */
struct ScenarioSettings
{
    std::vector<SuiteEntry> suite;
    uint64_t warmup = 40000;
    /** Worker threads; 0 means "one per hardware thread". */
    unsigned threads = 0;
    /**
     * trace= override: scenarios that build their own SimConfig or
     * pipeline should replay this file instead of a synthetic
     * workload.  Already applied to the shared suite.
     */
    std::string tracePath;
    /** Share one generate-once trace store across the scenario. */
    bool traceStore = true;
    /** profile=1: single-run stats=1 reports add the host perf.*
     *  group (sim_wall_seconds, minsts_per_sec). */
    bool profile = false;
    /** Disk-cache directory for the store; empty disables it. */
    std::string traceCacheDir;
    /** In-memory byte cap of the trace store. */
    uint64_t storeBytes = 256ull << 20;
};

/**
 * Everything a scenario needs at run time: the parsed options, the
 * output stream, the shared workload suite, and a lazily built
 * simulator wired to the parallel runner.
 */
class ScenarioContext
{
  public:
    /**
     * @param store a trace store to share across contexts (e.g. one
     *        per process for scenario=all); null builds a fresh one
     *        from the parsed options when the store is enabled.
     * @param telemetry the process-wide telemetry session (the
     *        telemetry= / chrometrace= / progress= options, created
     *        once by scenarioMain); null = telemetry off.  The
     *        context attaches it to the runner, the trace store and
     *        the service session it builds.
     */
    ScenarioContext(const OptionMap &opts, std::ostream &out,
                    std::shared_ptr<trace::TraceStore> store =
                        nullptr,
                    std::shared_ptr<obs::TelemetrySession>
                        telemetry = nullptr);

    const OptionMap &opts() const { return _opts; }
    std::ostream &out() { return _out; }
    const ScenarioSettings &settings() const { return _settings; }

    /** The shared simulator (built on first use). */
    const Simulator &simulator();

    /**
     * The scenario's shared trace store; null when disabled with
     * tracestore=0.
     */
    const std::shared_ptr<trace::TraceStore> &traceStore() const
    {
        return _store;
    }

    /**
     * The trace a pipeline-building scenario should replay for
     * (workload, seed): the whole trace= file when one was given,
     * otherwise @p length micro-ops of the synthetic workload.
     * Served through the scenario's store when enabled.
     */
    trace::TraceBufferPtr materializeTrace(
        const std::string &workload, uint64_t seed,
        uint64_t length);

    /** A sweep runner over the shared simulator. */
    SweepRunner runner();

    /**
     * The runner execution settings every sweep in this scenario
     * should use: threads= and — when workers= enabled the
     * sharded service — the shared ServiceSession.  Scenarios that
     * build their own SweepRunner (e.g. the population drivers) must
     * go through this instead of hand-rolling a RunnerConfig, or
     * they silently drop service mode.
     */
    RunnerConfig runnerConfig() const;

    /**
     * The sharded-service session (workers= > 0), or null when the
     * scenario runs in-process.  The driver prints its accounting to
     * stderr after the scenario body finishes.
     */
    const std::shared_ptr<service::ServiceSession> &
    serviceSession() const
    {
        return _service;
    }

    /** The spool directory was auto-generated (not spool=/resume=)
     *  and should be removed after a fully successful run. */
    bool spoolIsTemp() const { return _spoolIsTemp; }

    /** The telemetry session, or null when telemetry is off. */
    const std::shared_ptr<obs::TelemetrySession> &
    telemetrySession() const
    {
        return _telemetry;
    }

    /** A SweepConfig seeded with the context's suite and warmup. */
    SweepConfig sweepConfig() const;

    /** Aggregate one machine over the suite, in parallel. */
    MachineAtVcc runMachine(circuit::MilliVolts vcc,
                            mechanism::IrawMode mode);

    /** Aggregate many machines in one parallel wave. */
    std::vector<MachineAtVcc>
    runMachines(const std::vector<MachinePoint> &points);

    /**
     * Cap Monte Carlo population sizes (scenario=all: CI wall time
     * stays bounded even though the yield scenarios are included).
     * 0 means uncapped.
     */
    void setPopulationCap(uint32_t cap) { _populationCap = cap; }

    /**
     * The chips= option with @p def as default, clamped to the
     * population cap when one is active.  Prints a one-line note
     * when the cap reduces the requested population.
     */
    uint32_t populationChips(uint32_t def);

  private:
    const OptionMap &_opts;
    std::ostream &_out;
    ScenarioSettings _settings;
    std::shared_ptr<trace::TraceStore> _store;
    std::shared_ptr<service::ServiceSession> _service;
    std::shared_ptr<obs::TelemetrySession> _telemetry;
    bool _spoolIsTemp = false;
    std::unique_ptr<Simulator> _sim;
    uint32_t _populationCap = 0;
};

/** Scenario body; returns a process exit code. */
using ScenarioFn = int (*)(ScenarioContext &);

/** One registered figure/table/example scenario. */
struct Scenario
{
    std::string name;
    std::string description;
    ScenarioFn fn = nullptr;
};

/**
 * Name-keyed singleton registry of every linked scenario.
 * Registration happens from static initializers (single-threaded by
 * construction), but lookups can come from anywhere, so the map is
 * mutex-guarded anyway — the lock is nowhere near a hot path.
 * Entries are never removed, so returned pointers stay valid.
 */
class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /** Register a scenario; duplicate names are a library bug. */
    void add(Scenario scenario) EXCLUDES(_mutex);

    /** Look up by name; nullptr when absent. */
    const Scenario *find(const std::string &name) const
        EXCLUDES(_mutex);

    /** All scenarios, name-sorted. */
    std::vector<const Scenario *> all() const EXCLUDES(_mutex);

  private:
    mutable Mutex _mutex;
    std::map<std::string, Scenario> _scenarios GUARDED_BY(_mutex);
};

/** Registers a scenario from a static initializer. */
struct ScenarioRegistrar
{
    ScenarioRegistrar(const char *name, const char *description,
                      ScenarioFn fn);
};

/**
 * The driver main shared by every bench/example binary: runs
 * `scenario=<name>` (or the only registered scenario, or
 * `scenario=all`), and lists the registry with `list=1`.
 */
int scenarioMain(int argc, const char *const *argv);

} // namespace sim
} // namespace iraw

/**
 * Registers @p fn under @p name from this translation unit's static
 * initializers; linking the TU into a driver binary is enough to
 * make the scenario runnable.
 */
#define IRAW_SCENARIO(name, description, fn)                          \
    static const ::iraw::sim::ScenarioRegistrar                       \
        irawScenarioRegistrar_##fn { name, description, fn }

#endif // IRAW_SIM_SCENARIO_HH
