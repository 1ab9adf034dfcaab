#include "variation/chip_sample.hh"

#include <algorithm>
#include <cmath>

#include "circuit/cycle_time.hh"
#include "common/logging.hh"
#include "core/core_config.hh"
#include "iraw/controller.hh"
#include "isa/registers.hh"
#include "memory/hierarchy.hh"

namespace iraw {
namespace variation {

ChipGeometry
ChipGeometry::from(const core::CoreConfig &core,
                   const memory::MemoryConfig &mem)
{
    (void)core; // RF size is architectural, not configurable
    ChipGeometry g;
    auto set = [&g](StructureId id, uint64_t lines) {
        fatalIf(lines == 0 || lines > (1ull << 24),
                "ChipGeometry: structure %s has unreasonable line "
                "count %llu", structureName(id),
                static_cast<unsigned long long>(lines));
        g.lines[static_cast<uint32_t>(id)] =
            static_cast<uint32_t>(lines);
    };
    set(StructureId::RegisterFile, isa::kNumLogicalRegs);
    set(StructureId::Il0, mem.il0.sizeBytes / mem.il0.lineBytes);
    set(StructureId::Dl0, mem.dl0.sizeBytes / mem.dl0.lineBytes);
    set(StructureId::Ul1, mem.ul1.sizeBytes / mem.ul1.lineBytes);
    set(StructureId::Itlb, mem.itlb.entries);
    set(StructureId::Dtlb, mem.dtlb.entries);
    set(StructureId::FillBuffer, mem.fbEntries);
    set(StructureId::Wcb, mem.wcbEntries);
    return g;
}

uint32_t
stabilizationCyclesFor(double stabDelay, double multiplier,
                       double cycleTime)
{
    panicIf(cycleTime <= 0.0,
            "stabilizationCyclesFor: non-positive cycle time");
    // Same rounding as CycleTimeModel::stabilizationCycles so a
    // multiplier of exactly 1.0 reproduces the nominal N bitwise.
    const double n =
        std::ceil(stabDelay * multiplier / cycleTime - 1e-9);
    // Casting a double at or above 2^32 (or NaN) to uint32_t is
    // undefined; such a line saturates, so its chip is inoperable.
    if (!(n < 4294967296.0))
        return UINT32_MAX;
    return n < 1.0 ? 1u : static_cast<uint32_t>(n);
}

ChipSample
ChipSample::sample(const VariationModel &model,
                   uint64_t populationSeed, uint32_t chipIndex,
                   const ChipGeometry &geometry)
{
    ChipSample chip;
    chip._chipIndex = chipIndex;
    chip._chipSeed =
        VariationModel::chipSeedFor(populationSeed, chipIndex);
    chip._params = model.params();
    chip._geometry = geometry;

    for (uint32_t s = 0; s < kNumStructures; ++s) {
        auto id = static_cast<StructureId>(s);
        chip._structZ[s] =
            VariationModel::structureZ(chip._chipSeed, id);
        double structMax = -1e300;
        for (uint32_t line = 0; line < geometry.lines[s]; ++line)
            structMax = std::max(
                structMax,
                VariationModel::lineZ(chip._chipSeed, id, line));
        chip._maxLineZ[s] = structMax;
    }
    return chip;
}

double
ChipSample::maxZ() const
{
    return *std::max_element(_maxLineZ.begin(), _maxLineZ.end());
}

double
ChipSample::maxMultiplier(circuit::MilliVolts vcc) const
{
    VariationModel model(_params);
    double worst = 0.0;
    for (uint32_t s = 0; s < kNumStructures; ++s)
        worst = std::max(worst, model.multiplierAt(
                                    vcc, _maxLineZ[s], _structZ[s]));
    return worst;
}

StabilizationMaps
ChipSample::stabilizationMaps(
    const circuit::CycleTimeModel &model,
    const mechanism::IrawSettings &settings) const
{
    StabilizationMaps maps;
    maps.nominal = settings.stabilizationCycles;
    if (!settings.enabled)
        return maps;

    VariationModel var(_params);
    const double stab =
        model.sram().stabilizationDelay(settings.vcc);
    // multiplierAt's two voltage terms, once per map: each line then
    // costs one re-derived draw and one exp, with the same bits.
    const double es = var.effectiveSigma(settings.vcc);
    const double ess = var.effectiveSystematicSigma(settings.vcc);
    maps.active = true;
    for (uint32_t s = 0; s < kNumStructures; ++s) {
        auto id = static_cast<StructureId>(s);
        std::vector<uint32_t> &ns = maps.lineN[s];
        ns.resize(_geometry.lines[s]);
        uint32_t structWorst = 0;
        for (uint32_t line = 0; line < ns.size(); ++line) {
            double m = std::exp(
                es * VariationModel::lineZ(_chipSeed, id, line) +
                ess * _structZ[s]);
            // A multiplier of exactly 1.0 (sigma = 0) must land on
            // the controller's own N, including its ForcedOn
            // fallback, so unvaried chips are bitwise nominal.
            uint32_t n = (m == 1.0)
                             ? settings.stabilizationCycles
                             : stabilizationCyclesFor(
                                   stab, m, settings.cycleTime);
            ns[line] = n;
            structWorst = std::max(structWorst, n);
        }
        maps.structureWorst[s] = structWorst;
        maps.worst = std::max(maps.worst, structWorst);
    }
    return maps;
}

ChipOperability
ChipSample::operableAt(const circuit::CycleTimeModel &model,
                       const core::CoreConfig &core,
                       circuit::MilliVolts vcc) const
{
    VariationModel var(_params);
    const double stab = model.sram().stabilizationDelay(vcc);
    const double cycle = model.irawCycleTime(vcc);

    ChipOperability op;
    for (uint32_t s = 0; s < kNumStructures; ++s) {
        double m = var.multiplierAt(vcc, _maxLineZ[s], _structZ[s]);
        op.requiredN = std::max(
            op.requiredN, stabilizationCyclesFor(stab, m, cycle));
    }
    // The hardware is sized for maxStabilizationCycles, and the
    // scoreboard pattern must keep >= 1 encodable latency plus the
    // ready bit next to the bypass and bubble sections.  The sum is
    // 64-bit so a saturated requirement cannot wrap.
    op.operable =
        op.requiredN <= core.maxStabilizationCycles &&
        uint64_t{core.bypassLevels} + op.requiredN + 2 <=
            core.scoreboardBits;
    return op;
}

} // namespace variation
} // namespace iraw
