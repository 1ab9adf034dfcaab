#include "sim/adapt_analysis.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace iraw {
namespace sim {

adapt::AdaptConfig
parseAdaptConfig(ScenarioContext &ctx, adapt::Policy policy)
{
    adapt::AdaptConfig cfg;
    cfg.policy = policy;
    cfg.epochCycles = ctx.opts().getUint("epoch", cfg.epochCycles);
    uint64_t switchCycles =
        ctx.opts().getUint("switchcycles", cfg.switchCycles);
    fatalIf(switchCycles >= (1ull << 32),
            "switchcycles=%llu out of range",
            static_cast<unsigned long long>(switchCycles));
    cfg.switchCycles = static_cast<uint32_t>(switchCycles);
    cfg.switchEnergyAu =
        ctx.opts().getDouble("switchenergy", cfg.switchEnergyAu);
    cfg.floorVcc = ctx.opts().getDouble("floor", cfg.floorVcc);
    cfg.stepDownThreshold =
        ctx.opts().getDouble("down", cfg.stepDownThreshold);
    cfg.stepUpThreshold =
        ctx.opts().getDouble("up", cfg.stepUpThreshold);

    // The power budget: cap= with power= as an alias (the exemplar
    // heuristics speak watts; our unit is a.u. power).  Giving both
    // is ambiguous, so it is an error rather than a precedence rule.
    const bool hasCap = ctx.opts().has("cap");
    const bool hasPower = ctx.opts().has("power");
    fatalIf(hasCap && hasPower,
            "cap= and power= are aliases; give only one");
    if (hasCap)
        cfg.capPowerAu = ctx.opts().getDouble("cap", 0.0);
    else if (hasPower)
        cfg.capPowerAu = ctx.opts().getDouble("power", 0.0);
    // Reports print the budget in a.u. x1000, so that must stay
    // finite.
    const double maxCap = std::numeric_limits<double>::max() / 1000.0;
    fatalIf(cfg.capPowerAu < 0.0 || cfg.capPowerAu > maxCap,
            "%s=%g must be a power in [0, %g] (a.u.)",
            hasCap ? "cap" : "power", cfg.capPowerAu, maxCap);

    uint64_t modes = ctx.opts().getUint("modes", cfg.modeVariants);
    fatalIf(modes < 1 || modes > 2, "modes=%llu must be 1 or 2",
            static_cast<unsigned long long>(modes));
    cfg.modeVariants = static_cast<uint32_t>(modes);
    uint64_t throttles =
        ctx.opts().getUint("throttles", cfg.throttleVariants);
    fatalIf(throttles < 1 || throttles > 2,
            "throttles=%llu must be 1 or 2",
            static_cast<unsigned long long>(throttles));
    cfg.throttleVariants = static_cast<uint32_t>(throttles);
    uint64_t hysteresis =
        ctx.opts().getUint("hysteresis", cfg.hysteresisEpochs);
    fatalIf(hysteresis == 0 || hysteresis >= (1ull << 32),
            "hysteresis=%llu must be a positive epoch count",
            static_cast<unsigned long long>(hysteresis));
    cfg.hysteresisEpochs = static_cast<uint32_t>(hysteresis);
    cfg.phaseIpcThreshold =
        ctx.opts().getDouble("phaseipc", cfg.phaseIpcThreshold);
    cfg.phaseStallThreshold =
        ctx.opts().getDouble("phasestall",
                             cfg.phaseStallThreshold);
    cfg.validate();
    return cfg;
}

double
calibrateRefTimePerInst(ScenarioContext &ctx)
{
    MachineAtVcc ref =
        ctx.runMachine(600.0, mechanism::IrawMode::ForcedOff);
    fatalIf(ref.instructions == 0,
            "adapt calibration run committed nothing");
    return ref.execTimeAu / static_cast<double>(ref.instructions);
}

std::vector<SimConfig>
adaptConfigsOverSuite(
    const ScenarioSettings &settings, circuit::MilliVolts vcc,
    mechanism::IrawMode mode,
    std::shared_ptr<const adapt::AdaptConfig> adaptCfg,
    std::shared_ptr<const variation::ChipSample> chip)
{
    std::vector<SimConfig> configs;
    configs.reserve(settings.suite.size());
    for (const SuiteEntry &entry : settings.suite) {
        SimConfig cfg;
        cfg.workload = entry.workload;
        cfg.tracePath = entry.tracePath;
        cfg.seed = entry.seed;
        cfg.instructions = entry.instructions;
        cfg.warmupInstructions = settings.warmup;
        cfg.vcc = vcc;
        cfg.mode = mode;
        cfg.profile = settings.profile;
        cfg.adapt = adaptCfg;
        cfg.chip = chip;
        configs.push_back(cfg);
    }
    return configs;
}

AdaptAggregate
aggregateAdapt(const std::vector<SimResult> &results)
{
    AdaptAggregate agg;
    double vccWeighted = 0.0;
    for (const SimResult &r : results) {
        ++agg.runs;
        agg.instructions += r.pipeline.committedInsts;
        agg.cycles += r.pipeline.cycles;
        agg.execTimeAu += r.execTimeAu;
        agg.totalInstructions += r.adapt.totalInstructions;
        agg.totalExecTimeAu += r.adapt.execTimeAu;
        agg.energy.dynamic += r.adapt.energy.dynamic;
        agg.energy.leakage += r.adapt.energy.leakage;
        agg.switches += r.adapt.switches;
        agg.epochs += r.adapt.epochs;
        agg.settleCycles += r.adapt.settleCycles;
        agg.drainCycles += r.adapt.drainCycles;
        agg.capViolationEpochs += r.adapt.cap.capViolationEpochs;
        agg.capSteadyViolationEpochs +=
            r.adapt.cap.capSteadyViolationEpochs;
        agg.capCleanEnergyAu += r.adapt.cap.capCleanEnergyAu;
        agg.exploreEpochs += r.adapt.cap.exploreEpochs;
        agg.phaseRestarts += r.adapt.cap.phaseRestarts;
        vccWeighted += r.adapt.timeWeightedVcc * r.adapt.execTimeAu;
        agg.minVcc = agg.runs == 1
                         ? r.adapt.minVcc
                         : std::min(agg.minVcc, r.adapt.minVcc);
    }
    agg.timeWeightedVcc = agg.totalExecTimeAu > 0.0
                              ? vccWeighted / agg.totalExecTimeAu
                              : 0.0;
    // Each run's energy is finite, but switchenergy= can still make
    // their sum overflow.
    fatalIf(!std::isfinite(agg.energy.dynamic),
            "switchenergy: %llu switches over %llu runs make the "
            "energy total overflow",
            static_cast<unsigned long long>(agg.switches),
            static_cast<unsigned long long>(agg.runs));
    return agg;
}

} // namespace sim
} // namespace iraw
