/**
 * @file
 * DVFS operating-point explorer: sweep Vcc for a workload and find
 * the best energy / EDP / performance operating points for the IRAW
 * machine — the use case the paper motivates (mobile platforms
 * scaling Vcc with workload and battery state, Sec. 1).  Every Vcc
 * point runs as an independent task on the parallel runner.
 *
 * Usage:
 *   dvfs_energy_sweep [workload=multimedia] [insts=50000]
 *                     [perf_floor=0.5]   # min fraction of peak perf
 */

#include <algorithm>
#include <ostream>

#include "circuit/energy.hh"
#include "common/table.hh"
#include "sim/scenario.hh"

namespace {

int
runDvfs(iraw::sim::ScenarioContext &ctx)
{
    using namespace iraw;
    using namespace iraw::sim;

    std::string workload =
        ctx.opts().getString("workload", "multimedia");
    uint64_t insts = ctx.opts().getUint("insts", 50000);
    double perfFloor = ctx.opts().getDouble("perf_floor", 0.5);

    // One-trace sweep config; point 0 is the 600 mV baseline run
    // that calibrates the energy model.  This sweep defaults to the
    // longer single-run warm window but still honours warmup= (and
    // trace=, which replays a file instead of the workload).
    SweepConfig cfg = ctx.sweepConfig();
    cfg.suite = {{workload, 1, insts, ctx.settings().tracePath}};
    cfg.warmupInstructions = ctx.opts().getUint("warmup", 80000);

    const auto voltages = circuit::standardSweep();
    std::vector<MachinePoint> points;
    points.push_back({600.0, mechanism::IrawMode::ForcedOff});
    for (circuit::MilliVolts v : voltages)
        points.push_back({v, mechanism::IrawMode::Auto});
    std::vector<MachineAtVcc> machines =
        ctx.runner().runMachines(cfg, points);

    const MachineAtVcc &ref = machines[0];
    circuit::EnergyModel energy(
        ref.execTimeAu / static_cast<double>(ref.instructions));

    struct Point
    {
        double vcc;
        double perf;
        double energy;
        double edp;
    };
    std::vector<Point> pointsOut;

    TextTable table("IRAW-core DVFS sweep, workload " + workload);
    table.setHeader({"Vcc(mV)", "N", "perf (inst/au)", "energy",
                     "EDP"});
    for (size_t i = 0; i < voltages.size(); ++i) {
        const MachineAtVcc &m = machines[1 + i];
        auto e = energy.taskEnergy(voltages[i], m.instructions,
                                   m.execTimeAu,
                                   m.irawEnabled ? 0.01 : 0.0);
        Point pt{voltages[i], m.performance(), e.total(),
                 circuit::EnergyModel::edp(e, m.execTimeAu)};
        pointsOut.push_back(pt);
        table.addRow({
            TextTable::num(voltages[i], 0),
            std::to_string(m.stabilizationCycles),
            TextTable::num(pt.perf, 4),
            TextTable::num(pt.energy, 0),
            TextTable::num(pt.edp, 0),
        });
    }
    table.print(ctx.out());

    double peak = 0;
    for (const auto &pt : pointsOut)
        peak = std::max(peak, pt.perf);
    const Point *bestEnergy = nullptr;
    const Point *bestEdp = nullptr;
    for (const auto &pt : pointsOut) {
        if (pt.perf < perfFloor * peak)
            continue;
        if (!bestEnergy || pt.energy < bestEnergy->energy)
            bestEnergy = &pt;
        if (!bestEdp || pt.edp < bestEdp->edp)
            bestEdp = &pt;
    }
    ctx.out() << "subject to >= " << TextTable::pct(perfFloor, 0)
              << " of peak performance:\n";
    if (bestEnergy)
        ctx.out() << "  minimum-energy point: "
                  << TextTable::num(bestEnergy->vcc, 0) << " mV\n";
    if (bestEdp)
        ctx.out() << "  minimum-EDP point:    "
                  << TextTable::num(bestEdp->vcc, 0) << " mV\n";
    ctx.out() << "(the IRAW mechanism is what keeps the low-Vcc "
                 "points on this frontier usable)\n";
    return 0;
}

} // namespace

IRAW_SCENARIO("dvfs_energy_sweep",
              "DVFS explorer: best energy/EDP operating points for "
              "the IRAW machine (workload=, perf_floor=)",
              runDvfs);
