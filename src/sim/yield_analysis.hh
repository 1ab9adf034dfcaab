/**
 * @file
 * Vccmin/yield analysis shared by the population scenarios
 * (vccmin_cdf, yield_curve, variation_ablation): option parsing for
 * the chips=/sigma=/syssigma=/chipseed=/gamma= family, population
 * construction from a ScenarioContext, and the table/report
 * renderers.
 */

#ifndef IRAW_SIM_YIELD_ANALYSIS_HH
#define IRAW_SIM_YIELD_ANALYSIS_HH

#include <iosfwd>

#include "sim/scenario.hh"
#include "variation/population.hh"

namespace iraw {
namespace sim {

/**
 * Parse the population options shared by the variation scenarios:
 * chips= (via ScenarioContext::populationChips, so scenario=all can
 * cap it), sigma=, syssigma=, gamma= (voltage exponent), chipseed=,
 * and build a PopulationConfig on the context's suite, core/mem
 * defaults and the standard Vcc sweep.
 */
variation::PopulationConfig
parsePopulationConfig(ScenarioContext &ctx, uint32_t defaultChips,
                      variation::SimulateMode simulate);

/** Run the population on the context's simulator and runner config. */
variation::PopulationResult
runPopulation(ScenarioContext &ctx,
              const variation::PopulationConfig &cfg);

/**
 * Render the Vccmin CDF: one row per distinct Vccmin with chip
 * count and cumulative population fraction (monotone by
 * construction), plus per-chip detail rows.
 */
void writeVccminCdf(std::ostream &os,
                    const variation::PopulationResult &result);

/**
 * Render the yield curve: one row per grid voltage with the
 * operable fraction and (when simulated) population-mean IPC and
 * performance of the surviving chips.
 */
void writeYieldCurve(std::ostream &os,
                     const variation::PopulationResult &result);

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_YIELD_ANALYSIS_HH
