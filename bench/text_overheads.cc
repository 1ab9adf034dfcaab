/**
 * @file
 * Reproduces the Sec. 5.3 overhead claims: the IRAW hardware costs
 * below 0.03% extra area and below 1% extra power (with the paper's
 * pessimistic 20x activity factor), itemized per mechanism.
 */

#include <ostream>

#include "common/table.hh"
#include "core/core_config.hh"
#include "iraw/overhead_inventory.hh"
#include "memory/hierarchy.hh"
#include "predictor/predictor_dispatch.hh"
#include "predictor/rsb.hh"
#include "sim/scenario.hh"

namespace {

int
runOverheads(iraw::sim::ScenarioContext &ctx)
{
    using namespace iraw;

    // Baseline core SRAM inventory from the actual configuration.
    memory::MemoryConfig mc;
    memory::MemoryHierarchy mem(mc);
    core::CoreConfig cc;
    predictor::InlinePredictor bp(cc.predictorKind,
                                  cc.predictorEntries,
                                  cc.predictorHistoryBits);
    predictor::ReturnStackBuffer rsb(cc.rsbDepth);

    uint64_t coreSram = mem.totalSramBits() + bp.totalBits() +
                        rsb.totalBits() + cc.registerFileBits() +
                        cc.iqBits() + cc.scoreboardBitsTotal();

    TextTable inv("Baseline core SRAM inventory");
    inv.setHeader({"block", "bits"});
    inv.addRow({"IL0 + DL0 + UL1 + TLBs + FB + WCB",
                std::to_string(mem.totalSramBits())});
    inv.addRow({"branch predictor",
                std::to_string(bp.totalBits())});
    inv.addRow({"RSB", std::to_string(rsb.totalBits())});
    inv.addRow({"register file",
                std::to_string(cc.registerFileBits())});
    inv.addRow({"instruction queue", std::to_string(cc.iqBits())});
    inv.addRow({"scoreboard",
                std::to_string(cc.scoreboardBitsTotal())});
    inv.addRow({"total", std::to_string(coreSram)});
    inv.print(ctx.out());

    mechanism::OverheadParams p;
    p.bypassLevels = cc.bypassLevels;
    p.maxStabilizationCycles = cc.maxStabilizationCycles;
    p.stableEntries =
        cc.commitStoresPerCycle * cc.maxStabilizationCycles;
    auto model = mechanism::buildOverheadModel(coreSram, p);

    TextTable table("Sec. 5.3: IRAW hardware overhead");
    table.setHeader({"mechanism", "latch bits", "gate equiv"});
    for (const auto &item : model.items()) {
        table.addRow({item.name, std::to_string(item.latchBits),
                      std::to_string(item.gateEquivalents)});
    }
    table.addRow({"TOTAL", std::to_string(model.totalLatchBits()),
                  std::to_string(model.totalGateEquivalents())});
    table.print(ctx.out());

    ctx.out() << "area overhead:  "
              << TextTable::pct(model.areaFraction(), 4)
              << "  (paper: below 0.03%)\n"
              << "power overhead: "
              << TextTable::pct(model.powerFraction(), 3)
              << "  (paper: below 1%, 20x activity factor)\n";
    return 0;
}

} // namespace

IRAW_SCENARIO("text_overheads",
              "Sec. 5.3: itemized IRAW hardware area/power overhead",
              runOverheads);
