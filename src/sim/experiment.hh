/**
 * @file
 * The Vcc-sweep experiment engine behind Figures 11 and 12: for each
 * voltage it runs the workload suite on the baseline machine (writes
 * complete in-cycle, frequency scaled down) and on the IRAW machine
 * (interrupted writes, stalls), then derives frequency gain, speedup,
 * energy, and EDP exactly the way the paper's evaluation does.
 */

#ifndef IRAW_SIM_EXPERIMENT_HH
#define IRAW_SIM_EXPERIMENT_HH

#include <vector>

#include "circuit/energy.hh"
#include "sim/simulation.hh"
#include "sim/workload_suite.hh"

namespace iraw {
namespace sim {

/** Suite-aggregated measurements of one machine at one Vcc. */
struct MachineAtVcc
{
    circuit::MilliVolts vcc = 0.0;
    bool irawEnabled = false;
    uint32_t stabilizationCycles = 0;
    double cycleTimeAu = 0.0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double execTimeAu = 0.0;
    double ipc = 0.0;

    // Stall attribution sums (cycles).
    uint64_t rfIrawStalls = 0;
    uint64_t iqGateStalls = 0;
    uint64_t dl0IrawStalls = 0; //!< guard + STable replay
    uint64_t otherIrawStalls = 0;
    uint64_t rfIrawDelayedInsts = 0;

    double
    performance() const
    {
        return execTimeAu > 0.0 ? instructions / execTimeAu : 0.0;
    }
};

/** One row of the Figure 11/12 comparison. */
struct SweepRow
{
    circuit::MilliVolts vcc = 0.0;
    MachineAtVcc baseline;
    MachineAtVcc iraw;

    double frequencyGain = 1.0; //!< f_iraw / f_base
    double speedup = 1.0;       //!< perf_iraw / perf_base

    // Figure 12 quantities (relative to the same-Vcc baseline).
    double energyBaseline = 0.0;
    double energyIraw = 0.0;
    double relativeEnergy = 1.0;
    double relativeDelay = 1.0;
    double relativeEdp = 1.0;

    // Absolute curves normalized at 700 mV by the caller.
    circuit::EnergyBreakdown baselineBreakdown;
    circuit::EnergyBreakdown irawBreakdown;
};

/** Sweep configuration. */
struct SweepConfig
{
    std::vector<SuiteEntry> suite;
    std::vector<circuit::MilliVolts> voltages;
    core::CoreConfig core;
    memory::MemoryConfig mem;
    /** Per-trace warm-up window (cache and predictor warm-up). */
    uint64_t warmupInstructions = 80000;
    /** Dynamic-energy overhead fraction of the IRAW hardware
     *  (from OverheadModel::powerFraction; ~1% pessimistic). */
    double irawDynOverhead = 0.01;
};

/**
 * Runs the sweep on the calling thread.  This is a thin
 * single-threaded facade over sim::SweepRunner (see sim/runner.hh);
 * both produce bitwise-identical rows.
 */
class VccSweep
{
  public:
    explicit VccSweep(const Simulator &sim) : _sim(sim) {}

    /**
     * Execute the sweep.  The energy model is calibrated on the
     * baseline machine at 600 mV (paper Sec. 5.1: leakage is 10% of
     * total energy at 600 mV).
     */
    std::vector<SweepRow> run(const SweepConfig &cfg) const;

    /** Aggregate one machine over the suite at one voltage. */
    MachineAtVcc runMachine(const SweepConfig &cfg,
                            circuit::MilliVolts vcc,
                            mechanism::IrawMode mode) const;

  private:
    const Simulator &_sim;
};

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_EXPERIMENT_HH
