/**
 * @file
 * Reproduces Figure 12: energy, delay and energy-delay product of
 * the IRAW machine relative to the baseline at each Vcc level, plus
 * the Sec. 5.3 worked example at 450 mV (absolute leakage/dynamic
 * split), printed from the SweepRunner::run rows the integration
 * test checks against the paper bands.
 *
 * Paper anchors: relative EDP 0.61 @500 mV, 0.41 @450 mV,
 * 0.33 @400 mV; IRAW energy ~1% worse at 700-575 mV.
 */

#include <ostream>

#include "circuit/energy.hh"
#include "common/table.hh"
#include "sim/scenario.hh"

namespace {

int
runFig12(iraw::sim::ScenarioContext &ctx)
{
    using namespace iraw;
    using namespace iraw::sim;

    // The runner's sweep: the 600 mV baseline calibration run plus
    // the per-Vcc machine pairs, one parallel wave.
    SweepConfig cfg = ctx.sweepConfig();
    cfg.voltages = circuit::standardSweep();
    const std::vector<SweepRow> rows = ctx.runner().run(cfg);

    TextTable table("Figure 12: IRAW energy, delay and EDP relative "
                    "to the baseline at each Vcc");
    table.setHeader({"Vcc(mV)", "rel delay", "rel energy", "rel EDP",
                     "leak share base", "leak share iraw"});
    circuit::EnergyBreakdown ex450Base, ex450Iraw;
    for (const SweepRow &row : rows) {
        const circuit::EnergyBreakdown &eBase = row.baselineBreakdown;
        const circuit::EnergyBreakdown &eIraw = row.irawBreakdown;
        if (row.vcc == 450) {
            ex450Base = eBase;
            ex450Iraw = eIraw;
        }
        table.addRow({
            TextTable::num(row.vcc, 0),
            TextTable::num(row.relativeDelay, 3),
            TextTable::num(row.relativeEnergy, 3),
            TextTable::num(row.relativeEdp, 3),
            TextTable::pct(eBase.leakage / eBase.total(), 1),
            TextTable::pct(eIraw.leakage / eIraw.total(), 1),
        });
    }
    table.addNote("paper anchors: EDP 0.61 @500mV, 0.41 @450mV, "
                  "0.33 @400mV; ~1% energy overhead at high Vcc");
    table.print(ctx.out());

    // Sec. 5.3 worked example at 450 mV: the measured energy split.
    TextTable ex("Sec. 5.3 worked example at 450 mV "
                 "(energy split, a.u.)");
    ex.setHeader({"machine", "dynamic", "leakage", "total",
                  "leak %"});
    ex.addRow({"baseline", TextTable::num(ex450Base.dynamic, 0),
               TextTable::num(ex450Base.leakage, 0),
               TextTable::num(ex450Base.total(), 0),
               TextTable::pct(ex450Base.leakage / ex450Base.total(),
                              1)});
    ex.addRow({"IRAW", TextTable::num(ex450Iraw.dynamic, 0),
               TextTable::num(ex450Iraw.leakage, 0),
               TextTable::num(ex450Iraw.total(), 0),
               TextTable::pct(ex450Iraw.leakage / ex450Iraw.total(),
                              1)});
    ex.addNote("paper: baseline 8.50J (4.74J leakage) vs IRAW 6.40J "
               "(2.64J leakage) for the same task -- the win is "
               "pure leakage-time");
    ex.print(ctx.out());
    return 0;
}

} // namespace

IRAW_SCENARIO("fig12_energy_edp",
              "Figure 12: relative energy/delay/EDP vs Vcc and the "
              "Sec. 5.3 energy split",
              runFig12);
