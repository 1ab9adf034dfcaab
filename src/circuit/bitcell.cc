#include "circuit/bitcell.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace iraw {
namespace circuit {

namespace {

/**
 * Write-delay calibration, phase-normalized a.u. (12-FO4 phase at
 * 700 mV == 1.0), listed at the paper's 25 mV grid from 700 mV down to
 * 400 mV.  The per-knot comments name the anchor each sample
 * meets; ROADMAP.md item 9 tabulates the model against the paper.
 */
const std::vector<MilliVolts> kGrid = {
    700, 675, 650, 625, 600, 575, 550, 525, 500, 475, 450, 425, 400,
};

const std::vector<double> kWrite = {
    0.500,  // 700 mV: comfortably inside the phase
    0.580,  // 675
    0.670,  // 650
    0.780,  // 625
    0.9127, // 600 mV: write+wordline == 12 FO4 (first crossover)
    1.150,  // 575
    1.445,  // 550 mV: write+WL == phase/0.77 (the "77%" anchor)
    2.130,  // 525
    3.130,  // 500 mV: IRAW frequency gain anchor (+57%)
    4.900,  // 475
    7.590,  // 450 mV: write+WL == phase/0.24 (the "24%" anchor)
    11.950, // 425
    18.800, // 400 mV: IRAW frequency gain anchor (+99%)
};

} // namespace

const std::vector<MilliVolts> &
BitcellModel::calibrationGrid()
{
    return kGrid;
}

const std::vector<double> &
BitcellModel::calibrationWriteDelays()
{
    return kWrite;
}

BitcellModel::BitcellModel(const LogicDelayModel &logic, const Params &p)
    : _logic(logic), _params(p)
{
    fatalIf(p.readPhaseFraction <= 0.0 || p.readPhaseFraction >= 1.0,
            "BitcellModel: readPhaseFraction must be in (0, 1)");
    fatalIf(p.interruptFraction <= 0.0 || p.interruptFraction >= 1.0,
            "BitcellModel: interruptFraction must be in (0, 1)");
    fatalIf(p.stabilizeFraction <= 0.0,
            "BitcellModel: stabilizeFraction must be positive");
    fatalIf(!(p.writeDelayScale > 0.0) ||
                !std::isfinite(p.writeDelayScale),
            "BitcellModel: writeDelayScale must be finite and > 0");

    // Empty Params tables select the built-in calibration; custom
    // tables (variation/sensitivity studies) replace it wholesale.
    const std::vector<MilliVolts> &grid =
        p.writeGrid.empty() ? kGrid : p.writeGrid;
    const std::vector<double> &write =
        p.writeDelays.empty() ? kWrite : p.writeDelays;
    fatalIf(grid.size() != write.size(),
            "BitcellModel: %zu grid knots but %zu write delays",
            grid.size(), write.size());
    fatalIf(grid.size() < 2,
            "BitcellModel: calibration needs >= 2 knots");
    for (size_t i = 0; i < grid.size(); ++i) {
        fatalIf(write[i] <= 0.0,
                "BitcellModel: write delay at knot %zu must be > 0",
                i);
        fatalIf(i > 0 && grid[i] >= grid[i - 1],
                "BitcellModel: calibration grid must be strictly "
                "descending (the paper's figure order)");
    }

    // MonotoneCubic wants ascending abscissae; the calibration table
    // is written in the paper's descending figure order.
    std::vector<double> xs(grid.rbegin(), grid.rend());
    std::vector<double> ys;
    ys.reserve(write.size());
    for (auto it = write.rbegin(); it != write.rend(); ++it)
        ys.push_back(std::log(*it));
    _logWrite = MonotoneCubic(std::move(xs), std::move(ys));
}

double
BitcellModel::writeDelay(MilliVolts vcc) const
{
    fatalIf(!inModelRange(vcc),
            "BitcellModel: Vcc %.0f mV outside calibrated range "
            "[%.0f, %.0f]", vcc, kMinVcc, kMaxVcc);
    // Multiplying by the default scale of exactly 1.0 is a bitwise
    // identity on the (positive, finite) delay.
    return std::exp(_logWrite.eval(vcc)) * _params.writeDelayScale;
}

double
BitcellModel::interruptedWriteDelay(MilliVolts vcc) const
{
    return _params.interruptFraction * writeDelay(vcc);
}

double
BitcellModel::stabilizationDelay(MilliVolts vcc) const
{
    return _params.stabilizeFraction * writeDelay(vcc);
}

double
BitcellModel::readDelay(MilliVolts vcc) const
{
    fatalIf(!inModelRange(vcc),
            "BitcellModel: Vcc %.0f mV outside calibrated range "
            "[%.0f, %.0f]", vcc, kMinVcc, kMaxVcc);
    return _params.readPhaseFraction * _logic.phaseDelay(vcc);
}

} // namespace circuit
} // namespace iraw
