#include "variation/population.hh"

#include <algorithm>

#include "common/logging.hh"

namespace iraw {
namespace variation {

PopulationResult
ChipPopulation::run(const PopulationConfig &cfg) const
{
    fatalIf(cfg.chips == 0, "ChipPopulation: chips must be >= 1");
    fatalIf(cfg.chips > 65536,
            "ChipPopulation: %u chips is out of range [1, 65536]",
            cfg.chips);
    fatalIf(cfg.voltages.empty(),
            "ChipPopulation: empty voltage grid");
    fatalIf(cfg.suite.empty() &&
                cfg.simulate != SimulateMode::None,
            "ChipPopulation: simulation modes need a suite");

    VariationModel model(cfg.params);
    ChipGeometry geometry = ChipGeometry::from(cfg.core, cfg.mem);
    const circuit::CycleTimeModel &cycleModel =
        _sim.cycleTimeModel();

    PopulationResult result;
    result.totalChips = cfg.chips;
    result.populationSeed = cfg.populationSeed;
    result.params = cfg.params;
    result.simulate = cfg.simulate;
    result.voltages = cfg.voltages;
    std::sort(result.voltages.begin(), result.voltages.end(),
              std::greater<>());
    result.voltages.erase(std::unique(result.voltages.begin(),
                                      result.voltages.end()),
                          result.voltages.end());
    const std::vector<circuit::MilliVolts> &grid = result.voltages;

    // Sample the population and scan operability.  Sampling is a
    // pure per-chip function, so this loop could itself be farmed
    // out — but it is cheap next to the simulations and keeping it
    // serial keeps the reduction order trivially fixed.
    std::vector<std::shared_ptr<const ChipSample>> samples;
    samples.reserve(cfg.chips);
    result.chips.reserve(cfg.chips);
    for (uint32_t c = 0; c < cfg.chips; ++c) {
        auto chip = std::make_shared<const ChipSample>(
            ChipSample::sample(model, cfg.populationSeed, c,
                               geometry));
        ChipSummary summary;
        summary.chipIndex = c;
        summary.chipSeed = chip->chipSeed();
        summary.maxZ = chip->maxZ();
        summary.points.reserve(grid.size());
        bool prefix = true;
        for (size_t i = 0; i < grid.size(); ++i) {
            ChipAtVcc point;
            point.vcc = grid[i];
            ChipOperability op =
                chip->operableAt(cycleModel, cfg.core, grid[i]);
            point.operable = op.operable;
            point.requiredN = op.requiredN;
            // The prefix rule: Vccmin extends only while every
            // higher grid voltage also works.
            if (prefix && op.operable) {
                summary.yields = true;
                summary.vccmin = grid[i];
                summary.vccminIndex = i;
                summary.requiredNAtVccmin = op.requiredN;
            } else {
                prefix = false;
            }
            summary.points.push_back(point);
        }
        result.chips.push_back(std::move(summary));
        samples.push_back(std::move(chip));
    }

    // Fan the requested pipeline simulations out over the runner in
    // fixed (chip, voltage, trace) order.
    struct SimTarget
    {
        size_t chip = 0;
        size_t voltageIndex = 0;
    };
    std::vector<SimTarget> targets;
    for (size_t c = 0; c < result.chips.size(); ++c) {
        const ChipSummary &chip = result.chips[c];
        if (cfg.simulate == SimulateMode::None || !chip.yields)
            continue;
        if (cfg.simulate == SimulateMode::AtVccmin) {
            targets.push_back({c, chip.vccminIndex});
        } else {
            for (size_t i = 0; i <= chip.vccminIndex; ++i)
                targets.push_back({c, i});
        }
    }

    std::vector<sim::SimConfig> configs;
    configs.reserve(targets.size() * cfg.suite.size());
    for (const SimTarget &t : targets) {
        for (const sim::SuiteEntry &entry : cfg.suite) {
            sim::SimConfig sc;
            sc.core = cfg.core;
            sc.mem = cfg.mem;
            sc.workload = entry.workload;
            sc.tracePath = entry.tracePath;
            sc.seed = entry.seed;
            sc.instructions = entry.instructions;
            sc.warmupInstructions = cfg.warmupInstructions;
            sc.vcc = grid[t.voltageIndex];
            sc.mode = cfg.mode;
            sc.chip = samples[t.chip];
            configs.push_back(sc);
        }
    }

    sim::SweepRunner runner(_sim, _runner);
    std::vector<sim::SimResult> results = runner.runConfigs(configs);

    const size_t stride = cfg.suite.size();
    for (size_t t = 0; t < targets.size(); ++t) {
        std::vector<sim::SimResult> slice(
            results.begin() + t * stride,
            results.begin() + (t + 1) * stride);
        ChipAtVcc &point =
            result.chips[targets[t].chip]
                .points[targets[t].voltageIndex];
        point.simulated = true;
        point.machine = sim::SweepRunner::merge(
            grid[targets[t].voltageIndex], slice);
    }

    // Aggregates, folded in chip order.
    result.yieldAt.assign(grid.size(), 0.0);
    double vccminSum = 0.0;
    for (const ChipSummary &chip : result.chips) {
        if (!chip.yields)
            continue;
        ++result.yieldingChips;
        result.sortedVccmin.push_back(chip.vccmin);
        vccminSum += chip.vccmin;
        for (size_t i = 0; i <= chip.vccminIndex; ++i)
            result.yieldAt[i] += 1.0;
    }
    for (double &y : result.yieldAt)
        y /= static_cast<double>(cfg.chips);
    std::sort(result.sortedVccmin.begin(),
              result.sortedVccmin.end());
    result.meanVccmin =
        result.yieldingChips
            ? vccminSum / static_cast<double>(result.yieldingChips)
            : 0.0;
    return result;
}

} // namespace variation
} // namespace iraw
