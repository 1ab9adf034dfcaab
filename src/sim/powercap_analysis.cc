#include "sim/powercap_analysis.hh"

#include <cmath>
#include <memory>

#include "common/logging.hh"

namespace iraw {
namespace sim {

namespace {

/** Candidate ordering for the oracle: feasible beats infeasible;
 *  among feasible, performance (then lower power) wins; among
 *  infeasible, lower power (least-bad) wins. */
bool
oracleBetter(bool feasible, const AdaptAggregate &agg,
             bool bestFeasible, const AdaptAggregate &best)
{
    if (feasible != bestFeasible)
        return feasible;
    if (feasible) {
        if (agg.performance() != best.performance())
            return agg.performance() > best.performance();
        return agg.power() < best.power();
    }
    return agg.power() < best.power();
}

} // namespace

PowercapStudy
runPowercapStudy(ScenarioContext &ctx)
{
    PowercapStudy study;
    study.provisionVcc = ctx.opts().getDouble("vcc", 550.0);
    const std::string policyOpt =
        ctx.opts().getString("policy", "");
    const double capFrac = ctx.opts().getDouble("capfrac", 0.9);
    fatalIf(!(capFrac > 0.0) || std::isinf(capFrac),
            "capfrac=%g must be a finite fraction > 0", capFrac);
    const double refTime = calibrateRefTimePerInst(ctx);

    adapt::AdaptConfig base =
        parseAdaptConfig(ctx, adapt::Policy::Static);
    base.refTimePerInst = refTime;
    // Powercap-scale defaults: epochs short enough that the explore
    // policies finish their sweep well inside a quick run's budget.
    // Explicit epoch=/switchcycles= still win.
    if (!ctx.opts().has("epoch"))
        base.epochCycles = 2000;
    if (!ctx.opts().has("switchcycles"))
        base.switchCycles = 500;

    // Wave A: the uncapped static machine fixes the budget baseline
    // (and the headroom column) even when cap= is absolute.
    {
        adapt::AdaptConfig acfg = base;
        acfg.capPowerAu = 0.0;
        auto shared = std::make_shared<adapt::AdaptConfig>(acfg);
        AdaptAggregate agg = aggregateAdapt(
            ctx.runner().runConfigs(adaptConfigsOverSuite(
                ctx.settings(), study.provisionVcc,
                mechanism::IrawMode::Auto, shared)));
        study.uncappedStaticPowerAu = agg.power();
    }
    study.capPowerAu = base.capPowerAu > 0.0
                           ? base.capPowerAu
                           : capFrac * study.uncappedStaticPowerAu;

    std::vector<adapt::Policy> policies;
    if (policyOpt.empty()) {
        policies = {adapt::Policy::Static, adapt::Policy::Reactive,
                    adapt::Policy::Explore,
                    adapt::Policy::ExploreGlobal};
    } else {
        policies = {adapt::policyByName(policyOpt)};
    }

    // The oracle enumerates exactly the space the explore policies
    // search on the nominal (chip-free, default-core) machine.
    const core::CoreConfig core;
    std::vector<adapt::ExploreConfig> space = adapt::exploreSpace(
        ctx.simulator().cycleTimeModel(), base,
        mechanism::IrawMode::Auto, study.provisionVcc, core,
        nullptr);
    study.oracle.candidates = space.size();

    // Wave B: every capped run in one parallel wave — the runtime
    // policies first, then one Static hold per oracle candidate.
    std::vector<SimConfig> wave;
    const size_t perGroup = ctx.settings().suite.size();
    for (adapt::Policy policy : policies) {
        adapt::AdaptConfig acfg = base;
        acfg.policy = policy;
        acfg.capPowerAu = study.capPowerAu;
        auto shared = std::make_shared<adapt::AdaptConfig>(acfg);
        std::vector<SimConfig> configs = adaptConfigsOverSuite(
            ctx.settings(), study.provisionVcc,
            mechanism::IrawMode::Auto, shared);
        wave.insert(wave.end(), configs.begin(), configs.end());
    }
    for (const adapt::ExploreConfig &cand : space) {
        adapt::AdaptConfig acfg = base;
        acfg.policy = adapt::Policy::Static;
        acfg.capPowerAu = study.capPowerAu;
        // Static never consults the floor; pre-resolving it to the
        // held point skips one operability prefix scan per run.
        acfg.resolvedFloorVcc = cand.vcc;
        auto shared = std::make_shared<adapt::AdaptConfig>(acfg);
        std::vector<SimConfig> configs = adaptConfigsOverSuite(
            ctx.settings(), cand.vcc, cand.mode, shared);
        for (SimConfig &cfg : configs)
            cfg.issueThrottle = cand.issueThrottle;
        wave.insert(wave.end(), configs.begin(), configs.end());
    }
    std::vector<SimResult> results = ctx.runner().runConfigs(wave);

    size_t offset = 0;
    auto nextGroup = [&]() {
        std::vector<SimResult> group(
            results.begin() + offset,
            results.begin() + offset + perGroup);
        offset += perGroup;
        return aggregateAdapt(group);
    };

    study.rows.reserve(policies.size());
    for (adapt::Policy policy : policies)
        study.rows.push_back({policy, nextGroup()});

    bool haveBest = false;
    for (const adapt::ExploreConfig &cand : space) {
        AdaptAggregate agg = nextGroup();
        const bool feasible = agg.capViolationEpochs == 0;
        if (!haveBest ||
            oracleBetter(feasible, agg, study.oracle.feasible,
                         study.oracle.agg)) {
            study.oracle.config = cand;
            study.oracle.feasible = feasible;
            study.oracle.agg = agg;
            haveBest = true;
        }
    }
    fatalIf(!haveBest, "powercap oracle space is empty");
    return study;
}

} // namespace sim
} // namespace iraw
