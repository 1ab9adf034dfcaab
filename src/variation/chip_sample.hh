/**
 * @file
 * One sampled chip instance: its seed and per-structure summary of the
 * standard-normal draws of every SRAM structure, and the per-line
 * stabilization-cycle maps it derives at a given operating point.
 *
 * A ChipSample replaces the nominal machine's single uniform N with
 * one N per physical line frame: weak lines (slow bitcells) need
 * more stabilization cycles after an interrupted write, strong lines
 * fewer.  The chip *operates* at a Vcc iff the worst line's
 * requirement still fits the hardware's provisioned maximum
 * (CoreConfig::maxStabilizationCycles and the scoreboard pattern
 * width) — that bound is what turns within-die variation into
 * per-chip Vccmin and population yield.
 *
 * Population experiments run the IRAW machine with interrupted
 * writes at every voltage (IrawMode::ForcedOn): the stabilization
 * window is what covers weak cells, so under variation the
 * mechanism stays on even where the nominal machine would clock
 * conservatively.
 */

#ifndef IRAW_VARIATION_CHIP_SAMPLE_HH
#define IRAW_VARIATION_CHIP_SAMPLE_HH

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "variation/variation_model.hh"

namespace iraw {

namespace core {
struct CoreConfig;
}
namespace memory {
struct MemoryConfig;
}
namespace circuit {
class CycleTimeModel;
}
namespace mechanism {
struct IrawSettings;
}

namespace variation {

/** Line counts of every mapped SRAM structure on one machine. */
struct ChipGeometry
{
    std::array<uint32_t, kNumStructures> lines{};

    /** Derive from the machine configuration (cache line frames,
     *  TLB entries, logical registers, buffer slots). */
    static ChipGeometry from(const core::CoreConfig &core,
                             const memory::MemoryConfig &mem);

    bool operator==(const ChipGeometry &o) const
    {
        return lines == o.lines;
    }
    bool operator!=(const ChipGeometry &o) const
    {
        return !(*this == o);
    }
};

/**
 * Per-structure stabilization-cycle maps at one operating point.
 * lineN[s][i] is the number of cycles line i of structure s must be
 * protected from reads after an interrupted write.
 */
struct StabilizationMaps
{
    bool active = false;  //!< IRAW operation at this point
    uint32_t nominal = 0; //!< the unvaried machine's uniform N
    uint32_t worst = 0;   //!< max over all structures and lines
    std::array<std::vector<uint32_t>, kNumStructures> lineN;
    std::array<uint32_t, kNumStructures> structureWorst{};

    const std::vector<uint32_t> &of(StructureId id) const
    {
        return lineN[static_cast<uint32_t>(id)];
    }
    uint32_t worstOf(StructureId id) const
    {
        return structureWorst[static_cast<uint32_t>(id)];
    }
};

/** Operability of one chip at one voltage. */
struct ChipOperability
{
    bool operable = false;
    /** Worst per-line stabilization requirement (interrupted
     *  operation) across all structures. */
    uint32_t requiredN = 0;
};

/**
 * One Monte Carlo chip instance.  It keeps its seed and, per
 * structure, the systematic draw and the largest line draw (about 200
 * bytes); stabilizationMaps() re-derives each line's draw from the
 * seed, so a chip never holds its thousands of per-line values.
 */
class ChipSample
{
  public:
    /**
     * Sample chip @p chipIndex of the population seeded by
     * @p populationSeed.  Every line's draw is an independent pure
     * function of (chip seed, structure, line) — see the derivation
     * contract in variation_model.hh — so the result is identical
     * regardless of sampling order or thread count.
     */
    static ChipSample sample(const VariationModel &model,
                             uint64_t populationSeed,
                             uint32_t chipIndex,
                             const ChipGeometry &geometry);

    uint32_t chipIndex() const { return _chipIndex; }
    uint64_t chipSeed() const { return _chipSeed; }
    const ChipGeometry &geometry() const { return _geometry; }
    const VariationParams &params() const { return _params; }

    /** Largest z draw on the chip (sets the worst multiplier). */
    double maxZ() const;

    /** Worst delay multiplier on the chip at @p vcc. */
    double maxMultiplier(circuit::MilliVolts vcc) const;

    /**
     * Per-line stabilization maps for the operating point
     * @p settings (typically from IrawController::reconfigure).
     * Inactive (all-empty) when the settings have IRAW off.  With
     * sigma = 0 every entry equals the nominal N, so the chip is
     * bit-identical to the unvaried machine.
     */
    StabilizationMaps
    stabilizationMaps(const circuit::CycleTimeModel &model,
                      const mechanism::IrawSettings &settings) const;

    /**
     * Can this chip operate at @p vcc?  The chip runs interrupted
     * writes; it works iff the worst line's stabilization
     * requirement fits what the hardware is sized for
     * (maxStabilizationCycles, and the scoreboard pattern must keep
     * at least one encodable latency).
     */
    ChipOperability
    operableAt(const circuit::CycleTimeModel &model,
               const core::CoreConfig &core,
               circuit::MilliVolts vcc) const;

  private:
    uint32_t _chipIndex = 0;
    uint64_t _chipSeed = 0;
    VariationParams _params;
    ChipGeometry _geometry;
    /** Systematic (per-structure) draw of each structure. */
    std::array<double, kNumStructures> _structZ{};
    /** Largest line draw of each structure, kept for cheap
     *  operability scans. */
    std::array<double, kNumStructures> _maxLineZ{};
};

// A chip stays a plain value: its per-line draws are re-derived from
// the seed, never stored.
static_assert(std::is_trivially_copyable_v<ChipSample>);

/**
 * Stabilization cycles one line with delay multiplier @p multiplier
 * needs at cycle time @p cycleTime (a.u.) given the nominal
 * stabilization delay @p stabDelay (a.u.).  Matches the nominal
 * solver's rounding exactly so multiplier == 1 reproduces N.  A
 * requirement above UINT32_MAX, +inf or NaN saturates to UINT32_MAX,
 * which no hardware is sized for.
 */
uint32_t stabilizationCyclesFor(double stabDelay, double multiplier,
                                double cycleTime);

} // namespace variation
} // namespace iraw

#endif // IRAW_VARIATION_CHIP_SAMPLE_HH
