/**
 * @file
 * Reproduces Figure 11(b): IRAW frequency increase and performance
 * gain versus Vcc, from full cycle-level simulation of the workload
 * suite on both machines.  Every (Vcc, trace, machine) point is an
 * independent task on the parallel runner.
 *
 * Paper anchors: frequency +57% and speedup +48% at 500 mV;
 * frequency +99% and speedup +90% at 400 mV (ROADMAP.md items 3 and
 * 9 record the measured values and the deviation).
 */

#include <ostream>

#include "common/table.hh"
#include "sim/scenario.hh"

namespace {

int
runFig11b(iraw::sim::ScenarioContext &ctx)
{
    using namespace iraw;
    using namespace iraw::sim;

    const auto voltages = circuit::standardSweep();
    std::vector<MachinePoint> points;
    for (circuit::MilliVolts v : voltages) {
        points.push_back({v, mechanism::IrawMode::ForcedOff});
        points.push_back({v, mechanism::IrawMode::Auto});
    }
    std::vector<MachineAtVcc> machines = ctx.runMachines(points);

    TextTable table("Figure 11(b): frequency increase and "
                    "performance gain vs Vcc");
    table.setHeader({"Vcc(mV)", "freq gain", "perf gain", "IPC base",
                     "IPC iraw", "IRAW on"});
    for (size_t i = 0; i < voltages.size(); ++i) {
        const MachineAtVcc &base = machines[2 * i];
        const MachineAtVcc &iraw = machines[2 * i + 1];
        double fgain = base.cycleTimeAu / iraw.cycleTimeAu;
        double speedup = iraw.performance() / base.performance();
        table.addRow({
            TextTable::num(voltages[i], 0),
            TextTable::num(fgain, 3),
            TextTable::num(speedup, 3),
            TextTable::num(base.ipc, 3),
            TextTable::num(iraw.ipc, 3),
            iraw.irawEnabled ? "yes" : "no",
        });
    }
    table.addNote("paper anchors: freq +57%/speedup +48% @500mV, "
                  "freq +99%/speedup +90% @400mV");
    table.addNote("perf gain < freq gain: IRAW stalls + constant-ns "
                  "DRAM latency (paper Sec. 5.2)");
    table.print(ctx.out());
    return 0;
}

} // namespace

IRAW_SCENARIO("fig11b_speedup",
              "Figure 11(b): IRAW frequency and performance gain vs "
              "Vcc (full simulation)",
              runFig11b);
