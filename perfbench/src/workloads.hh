/**
 * @file
 * The benchmark's three workloads, each built from the library's
 * public API and a seed:
 *
 *  - vcc_sweep: the Figure 11(b) sweep (13 Vcc points x {ForcedOff,
 *    Auto}) over the 9-profile suite, fixed Vcc, through
 *    SweepRunner::runMachines (behaviour-class dedup applies).
 *  - powercap_adapt: the adapt_powercap study at 550 mV, capfrac 0.9,
 *    its default 2000-cycle epochs: four runtime policies plus the
 *    28-candidate offline oracle (epoch-chunked, never deduplicated).
 *  - chip_population: vccmin_cdf, 32 chips (sigma 0.08, syssigma
 *    0.02) each simulated at its own Vccmin with per-line maps.
 *
 * The seed picks the suite seed of vcc_sweep and powercap_adapt and
 * the chip-population seed of chip_population (see suiteSeed());
 * seed 1 reproduces the repository's full-size scenarios exactly.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/powercap_analysis.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "sim/workload_suite.hh"
#include "variation/population.hh"

namespace perfbench {

class SpanLog;

/** Measured-window instructions per suite trace (scenario default). */
constexpr uint64_t kInstructions = 60000;
/** Warm-up instructions per simulation (scenario default). */
constexpr uint64_t kWarmup = 40000;
/** Lockstep lanes per runner work item (the scenarios' batch=). */
constexpr unsigned kBatch = 8;

enum class WorkloadId
{
    VccSweep,
    PowercapAdapt,
    ChipPopulation,
};

/** Parse a workload name; throws iraw::FatalError when unknown. */
WorkloadId workloadByName(const std::string &name);
const char *workloadName(WorkloadId id);

/** Runner threads of the timed runs. */
unsigned workloadThreads(WorkloadId id);

/**
 * Input seeds of benchmark seed @p seed: the suite seed of vcc_sweep
 * and powercap_adapt, and the population seed of chip_population.
 * Both cycle through a fixed list of validated seeds in 1..40 (see
 * workloads.cc); benchmark seed 1 maps to input seed 1.
 */
uint64_t suiteSeed(uint64_t seed);
uint64_t chipSeed(uint64_t seed);

/** The traces the workload replays at @p seed. */
std::vector<iraw::sim::SuiteEntry> workloadSuite(WorkloadId id,
                                                 uint64_t seed);

/** A simulator with every trace of a workload already resident. */
struct Prepared
{
    std::unique_ptr<iraw::sim::Simulator> sim;
    std::vector<iraw::trace::TraceBufferPtr> buffers;
};

/**
 * The workload's set-up: construct the simulator on a fresh trace
 * store, then materialize and decode every trace the workload
 * replays, so the simulations only ever hit the store.  Spans:
 * sim.construct, trace.materialize and trace.decode.
 */
Prepared prepare(WorkloadId id, uint64_t seed, SpanLog *log);

/** What one execution of a workload produced. */
struct WorkloadOutput
{
    /** Canonical, full-precision rendering of every simulated
     *  result; the correctness digest is taken over it. */
    std::string report;
    /** Instructions the results represent (warm-up and dedup
     *  aliases included). */
    uint64_t representedInsts = 0;
    /**
     * Traced runs only: the simulations the results stand for, as
     * runConfigs waves (vcc_sweep: every point, before dedup), for
     * the per-layer engine pass.  Empty on untraced runs.
     */
    std::vector<std::vector<iraw::sim::SimConfig>> waves;
};

/**
 * Execute workload @p id at @p seed on @p sim through runners built
 * from @p runner.  With a span log attached (the traced run) every
 * library call is recorded as a span and the waves are filled in.
 */
WorkloadOutput runWorkload(WorkloadId id, uint64_t seed,
                           const iraw::sim::Simulator &sim,
                           const iraw::sim::RunnerConfig &runner,
                           SpanLog *log);

/**
 * The adapt_powercap study over an arbitrary suite: a copy of
 * iraw::sim::runPowercapStudy with its defaults (550 mV, capfrac 0.9,
 * every policy, 2000-cycle epochs, 500-cycle switches), which only
 * reads its suite from a ScenarioContext's fixed-seed options.  The
 * correctness gate checks on every run that the copy still renders
 * exactly what the library study does at quick size.
 */
iraw::sim::PowercapStudy
powercapStudy(const iraw::sim::Simulator &sim,
              const iraw::sim::RunnerConfig &runner,
              const std::vector<iraw::sim::SuiteEntry> &suite,
              SpanLog *log, WorkloadOutput *out);

/** Full-precision renderings of each workload's results. */
std::string
renderMachines(const std::vector<iraw::sim::MachineAtVcc> &machines);
std::string
renderPopulation(const iraw::variation::PopulationResult &result);
std::string renderPowercap(const iraw::sim::PowercapStudy &study);

/** Greedy explore's energy above the oracle, in percent. */
double oracleGapPct(const iraw::sim::PowercapStudy &study);

/** Greedy explore's steady-state cap-violation epochs. */
uint64_t capSteadyViolations(const iraw::sim::PowercapStudy &study);

/** FNV-1a 64 of @p text as 16 hex digits. */
std::string digest(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
