#include "sim/yield_analysis.hh"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"

namespace iraw {
namespace sim {

variation::PopulationConfig
parsePopulationConfig(ScenarioContext &ctx, uint32_t defaultChips,
                      variation::SimulateMode simulate)
{
    variation::PopulationConfig cfg;
    cfg.chips = ctx.populationChips(defaultChips);
    cfg.populationSeed = ctx.opts().getUint("chipseed", 1);
    cfg.params.sigma = ctx.opts().getDouble("sigma", 0.08);
    cfg.params.systematicSigma =
        ctx.opts().getDouble("syssigma", 0.02);
    cfg.params.voltageExponent =
        ctx.opts().getDouble("gamma", 3.0);
    cfg.params.validate();
    cfg.voltages = circuit::standardSweep();
    cfg.suite = ctx.settings().suite;
    cfg.warmupInstructions = ctx.settings().warmup;
    cfg.simulate = ctx.opts().getBool(
                       "simulate",
                       simulate != variation::SimulateMode::None)
                       ? simulate
                       : variation::SimulateMode::None;
    return cfg;
}

variation::PopulationResult
runPopulation(ScenarioContext &ctx,
              const variation::PopulationConfig &cfg)
{
    // runnerConfig() rather than a hand-rolled RunnerConfig: the
    // populations must honor threads= and service mode (workers=)
    // like every other sweep; results are bitwise identical either
    // way (invariants 2 and 8).
    variation::ChipPopulation population(ctx.simulator(),
                                         ctx.runnerConfig());
    return population.run(cfg);
}

void
writeVccminCdf(std::ostream &os,
               const variation::PopulationResult &result)
{
    TextTable cdf("Vccmin CDF (" +
                  std::to_string(result.totalChips) + " chips, " +
                  "sigma=" + TextTable::num(result.params.sigma, 3) +
                  ", syssigma=" +
                  TextTable::num(result.params.systematicSigma, 3) +
                  ", chipseed=" +
                  std::to_string(result.populationSeed) + ")");
    cdf.setHeader({"Vccmin(mV)", "chips", "cumulative", "CDF"});

    // Count per distinct Vccmin, ascending; the running sum is the
    // (monotone non-decreasing) CDF.
    std::map<circuit::MilliVolts, uint32_t> counts;
    for (circuit::MilliVolts v : result.sortedVccmin)
        ++counts[v];
    uint32_t cumulative = 0;
    for (const auto &[vccmin, count] : counts) {
        cumulative += count;
        cdf.addRow({TextTable::num(vccmin, 0),
                    std::to_string(count),
                    std::to_string(cumulative),
                    TextTable::num(static_cast<double>(cumulative) /
                                       result.totalChips,
                                   4)});
    }
    uint32_t failing = result.totalChips - result.yieldingChips;
    if (failing > 0)
        cdf.addNote(std::to_string(failing) +
                    " chip(s) do not operate anywhere on the grid");
    if (result.yieldingChips > 0)
        cdf.addNote("mean Vccmin " +
                    TextTable::num(result.meanVccmin, 1) + " mV");
    cdf.print(os);

    // Per-chip detail (bounded; large populations keep the CDF).
    constexpr size_t kMaxDetailRows = 40;
    TextTable detail("Per-chip detail");
    bool simulated =
        result.simulate != variation::SimulateMode::None;
    std::vector<std::string> header = {"chip", "max z",
                                       "Vccmin(mV)", "N@Vccmin"};
    if (simulated) {
        header.push_back("IPC@Vccmin");
        header.push_back("perf@Vccmin");
    }
    detail.setHeader(header);
    for (const variation::ChipSummary &chip : result.chips) {
        if (detail.numRows() >= kMaxDetailRows) {
            detail.addNote("further chips elided (" +
                           std::to_string(result.chips.size()) +
                           " total)");
            break;
        }
        std::vector<std::string> row = {
            std::to_string(chip.chipIndex),
            TextTable::num(chip.maxZ, 2),
            chip.yields ? TextTable::num(chip.vccmin, 0) : "-",
            chip.yields ? std::to_string(chip.requiredNAtVccmin)
                        : "-",
        };
        if (simulated) {
            const variation::ChipAtVcc *at =
                chip.yields ? &chip.points[chip.vccminIndex]
                            : nullptr;
            bool have = at && at->simulated;
            row.push_back(
                have ? TextTable::num(at->machine.ipc, 3) : "-");
            row.push_back(
                have ? TextTable::num(at->machine.performance(), 4)
                     : "-");
        }
        detail.addRow(row);
    }
    detail.print(os);
}

void
writeYieldCurve(std::ostream &os,
                const variation::PopulationResult &result)
{
    TextTable table(
        "Yield vs Vcc (" + std::to_string(result.totalChips) +
        " chips, sigma=" + TextTable::num(result.params.sigma, 3) +
        ", chipseed=" + std::to_string(result.populationSeed) + ")");
    bool simulated =
        result.simulate == variation::SimulateMode::AllOperable;
    std::vector<std::string> header = {"Vcc(mV)", "yield",
                                       "operable", "worst N"};
    if (simulated) {
        header.push_back("mean IPC");
        header.push_back("mean perf");
    }
    table.setHeader(header);

    for (size_t i = 0; i < result.voltages.size(); ++i) {
        uint32_t operable = 0;
        uint32_t worstN = 0;
        double ipcSum = 0.0, perfSum = 0.0;
        uint32_t simCount = 0;
        for (const variation::ChipSummary &chip : result.chips) {
            const variation::ChipAtVcc &point = chip.points[i];
            // Yield counts chips whose whole operating range
            // reaches this voltage (vccmin <= v), matching the CDF.
            if (!chip.yields || chip.vccminIndex < i)
                continue;
            ++operable;
            worstN = std::max(worstN, point.requiredN);
            if (point.simulated) {
                ++simCount;
                ipcSum += point.machine.ipc;
                perfSum += point.machine.performance();
            }
        }
        std::vector<std::string> row = {
            TextTable::num(result.voltages[i], 0),
            TextTable::pct(static_cast<double>(operable) /
                           result.totalChips),
            std::to_string(operable),
            operable ? std::to_string(worstN) : "-",
        };
        if (simulated) {
            row.push_back(simCount ? TextTable::num(
                                         ipcSum / simCount, 3)
                                   : "-");
            row.push_back(simCount ? TextTable::num(
                                         perfSum / simCount, 4)
                                   : "-");
        }
        table.addRow(row);
    }
    table.addNote("yield = fraction of chips whose Vccmin reaches "
                  "this voltage (monotone by construction)");
    table.print(os);
}

} // namespace sim
} // namespace iraw
