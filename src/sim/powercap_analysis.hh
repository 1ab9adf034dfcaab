/**
 * @file
 * Power-capped policy comparison behind the adapt_powercap scenario
 * and perfbench's oracle_gap_pct metric: resolve a watt budget
 * (absolute cap= / power=, or capfrac= of the measured uncapped
 * static power), run every runtime policy against it over the same
 * trace suite, and score them against an offline oracle that
 * exhaustively sweeps the explore policies' joint (Vcc level x IRAW
 * mode x issue throttle) space as fixed configurations.
 *
 * Every run reuses the exact adapt.* drain/settle/switch-energy
 * penalty accounting (the oracle holds each candidate with a
 * Static-policy controller carrying the same cap), so the
 * energy-under-cap and violation-rate columns are comparable across
 * policies by construction.
 */

#ifndef IRAW_SIM_POWERCAP_ANALYSIS_HH
#define IRAW_SIM_POWERCAP_ANALYSIS_HH

#include <string>
#include <vector>

#include "sim/adapt_analysis.hh"

namespace iraw {
namespace sim {

/** One policy's capped aggregate. */
struct PowercapRow
{
    adapt::Policy policy = adapt::Policy::Static;
    AdaptAggregate agg;
};

/** The offline oracle: best fixed candidate under the cap. */
struct PowercapOracle
{
    /** The chosen (Vcc, mode, throttle) candidate. */
    adapt::ExploreConfig config;
    /** True when the winner had zero violation epochs; false means
     *  nothing was feasible and the lowest-power candidate won. */
    bool feasible = false;
    /** Candidates enumerated (the explore search-space size). */
    size_t candidates = 0;
    AdaptAggregate agg;
};

/** Everything the powercap scenario/bench report. */
struct PowercapStudy
{
    circuit::MilliVolts provisionVcc = 0.0;
    /** The resolved budget every capped run was scored against. */
    double capPowerAu = 0.0;
    /** Mean power of the uncapped static run (capfrac= base). */
    double uncappedStaticPowerAu = 0.0;
    std::vector<PowercapRow> rows;
    PowercapOracle oracle;
};

/**
 * Run the study: policy= restricts the runtime-policy rows (empty
 * compares static/reactive/explore/explore_global); the oracle
 * sweep always runs.  Consumes the adapt option family plus vcc=
 * and capfrac=.
 */
PowercapStudy runPowercapStudy(ScenarioContext &ctx);

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_POWERCAP_ANALYSIS_HH
