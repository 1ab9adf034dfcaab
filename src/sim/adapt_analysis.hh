/**
 * @file
 * Vcc-adaptation analysis shared by the adapt scenarios
 * (adapt_policies, adapt_population, adapt_powercap): option parsing
 * for the epoch=/policy=/switchcycles=/switchenergy=/floor= family,
 * suite fan-out helpers, and fixed-order aggregation of adaptive
 * runs.
 */

#ifndef IRAW_SIM_ADAPT_ANALYSIS_HH
#define IRAW_SIM_ADAPT_ANALYSIS_HH

#include <memory>
#include <vector>

#include "sim/scenario.hh"
#include "sim/simulation.hh"

namespace iraw {
namespace sim {

/**
 * Parse the adapt option family shared by the adaptation scenarios:
 * epoch=, switchcycles=, switchenergy=, floor=, down=, up=.  The
 * policy itself is scenario-level (policy=; compare modes run
 * several), so it is passed in.
 */
adapt::AdaptConfig parseAdaptConfig(ScenarioContext &ctx,
                                    adapt::Policy policy);

/**
 * Energy calibration for paper-comparable absolute numbers: the
 * baseline machine's execution time per instruction at the
 * EnergyModel reference point (600 mV, ForcedOff), aggregated over
 * the context's suite on the parallel runner.
 */
double calibrateRefTimePerInst(ScenarioContext &ctx);

/**
 * One SimConfig per suite entry, all carrying @p adaptCfg (and
 * optionally one sampled chip), starting at the provisioned
 * @p vcc.  Fan through SweepRunner::runConfigs; results arrive in
 * suite order.
 */
std::vector<SimConfig> adaptConfigsOverSuite(
    const ScenarioSettings &settings, circuit::MilliVolts vcc,
    mechanism::IrawMode mode,
    std::shared_ptr<const adapt::AdaptConfig> adaptCfg,
    std::shared_ptr<const variation::ChipSample> chip = nullptr);

/** Fixed-order fold of adaptive runs (suite and/or chips). */
struct AdaptAggregate
{
    uint64_t runs = 0;
    /** Measured-window sums (warmup excluded), like MachineAtVcc. */
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double execTimeAu = 0.0;
    /** Whole-run sums (the controller's world, warmup included). */
    uint64_t totalInstructions = 0;
    double totalExecTimeAu = 0.0;
    circuit::EnergyBreakdown energy;
    uint64_t switches = 0;
    uint64_t epochs = 0;
    uint64_t settleCycles = 0;
    uint64_t drainCycles = 0;
    /** Power-cap accounting, summed over the runs (all zero when
     *  no cap was configured). */
    uint64_t capViolationEpochs = 0;
    uint64_t capSteadyViolationEpochs = 0;
    double capCleanEnergyAu = 0.0;
    uint64_t exploreEpochs = 0;
    uint64_t phaseRestarts = 0;
    /** Exec-time-weighted mean operating voltage over all runs. */
    double timeWeightedVcc = 0.0;
    circuit::MilliVolts minVcc = 0.0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }
    double
    performance() const
    {
        return execTimeAu > 0.0 ? instructions / execTimeAu : 0.0;
    }
    /** Whole-run energy-delay product. */
    double
    edp() const
    {
        return energy.total() * totalExecTimeAu;
    }

    /**
     * Whole-run mean power (a.u. energy per a.u. time) — the metric
     * voltage descent actually minimizes: in the near-threshold
     * energy model leakage *energy* can grow as Vcc falls (longer
     * runtime), but power always drops with the supply.
     */
    double
    power() const
    {
        return totalExecTimeAu > 0.0
                   ? energy.total() / totalExecTimeAu
                   : 0.0;
    }

    /** Share of epochs whose mean power exceeded the cap. */
    double
    capViolationRate() const
    {
        return epochs ? static_cast<double>(capViolationEpochs) /
                            epochs
                      : 0.0;
    }
};

/** Fold results in vector order (bitwise reduction-order fixed). */
AdaptAggregate aggregateAdapt(const std::vector<SimResult> &results);

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_ADAPT_ANALYSIS_HH
