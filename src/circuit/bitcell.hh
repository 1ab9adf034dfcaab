/**
 * @file
 * 8-T SRAM bitcell read/write delay versus Vcc.
 *
 * The paper's circuit numbers come from an Intel-internal electrical
 * simulator (45 nm, 6-sigma process variation, 80%-swing criterion).
 * We substitute a calibrated empirical model (ROADMAP.md item 9
 * tabulates each anchor against the paper):
 *
 *  - the *write* delay is a monotone super-exponential sampled at
 *    25 mV steps and interpolated monotonically in log space.  The
 *    samples are calibrated so that every quantitative anchor the
 *    paper states holds (crossovers near 600/525-550 mV; baseline
 *    frequency 77% of logic at 550 mV and 24% at 450 mV; IRAW
 *    frequency gains +57% at 500 mV and +99% at 400 mV);
 *  - the *read* delay scales with the logic delay (8-T cells decouple
 *    the read port, so reads stay below the 12-FO4 phase, as Figure 1
 *    shows).
 */

#ifndef IRAW_CIRCUIT_BITCELL_HH
#define IRAW_CIRCUIT_BITCELL_HH

#include "circuit/logic_delay.hh"
#include "circuit/voltage.hh"
#include "common/interp.hh"

namespace iraw {
namespace circuit {

/** Calibrated 8-T bitcell delay model (phase-normalized a.u.). */
class BitcellModel
{
  public:
    struct Params
    {
        /**
         * Read bitline development delay as a fraction of the logic
         * phase delay.  8-T cells size the read stack freely, so the
         * read path tracks logic delay.
         */
        double readPhaseFraction = 0.55;

        /**
         * Fraction of the full bitcell write delay that must elapse
         * before the wordline may be deactivated (the cell has flipped
         * past its restoring point and will complete on its own).
         * This is the paper's "interrupted write" — kappa, the point
         * at which CycleTimeModel::irawCycleTime() cuts the write.
         */
        double interruptFraction = 0.42;

        /**
         * Self-stabilization time after interruption, as a fraction of
         * the full write delay (the cell finishes its swing without
         * bitline assistance, hence slower) — lambda, from which
         * CycleTimeModel::stabilizationCycles() derives N.
         */
        double stabilizeFraction = 0.55;

        /**
         * Write-delay calibration table: Vcc knots (descending, the
         * paper's figure order) and the write delay at each knot
         * (a.u.).  Empty vectors select the built-in calibration
         * (calibrationGrid()/calibrationWriteDelays()) and are
         * bit-identical to it.  Exposed as parameters so variation
         * and sensitivity studies can perturb the table without
         * patching the nominal constants.
         */
        std::vector<MilliVolts> writeGrid;
        std::vector<double> writeDelays;

        /**
         * Uniform multiplier on the calibrated write delay (a
         * process-corner knob; per-line variation multiplies on top
         * of this).  1.0 is bit-identical to the nominal model.
         */
        double writeDelayScale = 1.0;
    };

    explicit BitcellModel(const LogicDelayModel &logic)
        : BitcellModel(logic, Params{})
    {}
    BitcellModel(const LogicDelayModel &logic, const Params &p);

    /** Full bitcell write delay (no wordline activation included). */
    double writeDelay(MilliVolts vcc) const;

    /**
     * Minimum in-cycle write time when the write is interrupted early
     * (IRAW operation): kappa * writeDelay.
     */
    double interruptedWriteDelay(MilliVolts vcc) const;

    /**
     * Time the cell needs after wordline deactivation to become
     * readable again: lambda * writeDelay.
     */
    double stabilizationDelay(MilliVolts vcc) const;

    /** Bitcell read (bitline development) delay. */
    double readDelay(MilliVolts vcc) const;

    const Params &params() const { return _params; }

    /** Vcc grid the write-delay calibration uses (descending). */
    static const std::vector<MilliVolts> &calibrationGrid();
    /** Calibrated write delays on that grid (a.u., same order). */
    static const std::vector<double> &calibrationWriteDelays();

  private:
    const LogicDelayModel &_logic;
    Params _params;
    MonotoneCubic _logWrite; //!< ln(write delay) vs Vcc (ascending)
};

} // namespace circuit
} // namespace iraw

#endif // IRAW_CIRCUIT_BITCELL_HH
