/**
 * @file
 * Workload studio: inspect the synthetic trace generator's output —
 * instruction mix, dependency distances, branch behaviour, memory
 * locality — and optionally round-trip a trace through the binary
 * file format (the ingestion path for users with real traces).
 * With trace= it characterizes the given trace file instead of the
 * synthetic workloads.
 *
 * Usage:
 *   workload_studio [workload=all] [insts=50000]
 *                   [dump=/tmp/trace.trc] [trace=real.trc]
 */

#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/scenario.hh"
#include "trace/analyzer.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace {

int
runWorkloadStudio(iraw::sim::ScenarioContext &ctx)
{
    using namespace iraw;
    using namespace iraw::trace;

    std::string which = ctx.opts().getString("workload", "all");
    uint64_t insts = ctx.opts().getUint("insts", 50000);
    fatalIf(insts == 0, "insts=0: workload_studio needs at least one "
                        "micro-op");
    std::string dump = ctx.opts().getString("dump", "");

    std::vector<std::string> names;
    if (!ctx.settings().tracePath.empty())
        names.push_back(ctx.settings().tracePath); // one row: the file
    else if (which == "all")
        names = profileNames();
    else
        names.push_back(which);

    TextTable table("Synthetic workload characterization (" +
                    std::to_string(insts) + " micro-ops)");
    table.setHeader({"workload", "loads", "stores", "branches",
                     "taken", "dep<=4", "64B lines", "min c->r"});
    for (const auto &name : names) {
        // Materialize through the scenario's store: a later dump= of
        // the same workload reuses the buffer instead of
        // regenerating.
        TraceStats s = TraceAnalyzer::analyze(
            *ctx.materializeTrace(name, 1, insts), insts);
        table.addRow({
            name,
            TextTable::pct(s.classFraction(isa::OpClass::Load), 1),
            TextTable::pct(s.classFraction(isa::OpClass::Store), 1),
            TextTable::pct(s.classFraction(isa::OpClass::Branch),
                           1),
            TextTable::pct(s.takenFraction(), 1),
            TextTable::pct(s.depDistanceCdf(4), 1),
            std::to_string(s.distinctLines),
            s.minCallReturnGap ? std::to_string(*s.minCallReturnGap)
                               : "none",
        });
    }
    table.addNote("dep<=4: fraction of source operands produced at "
                  "most 4 micro-ops earlier (drives RF-IRAW "
                  "conflicts)");
    table.print(ctx.out());

    if (!dump.empty()) {
        // A store hit: the characterization loop above already
        // materialized this (workload, seed, insts) buffer.
        uint64_t written = dumpTrace(
            *ctx.materializeTrace(names.front(), 1, insts), dump, insts);
        TraceBufferPtr back = materializeFile(dump);
        ctx.out() << "wrote " << written << " records to " << dump
                  << "; first record: " << back->seqNum(0) << ": "
                  << back->at(0).toString() << "\n";
    }

    // Show a small disassembly excerpt.
    TraceBufferPtr head = ctx.materializeTrace(names.front(), 1, insts);
    ctx.out() << "\nfirst 10 micro-ops of " << names.front()
              << ":\n";
    for (uint64_t i = 0; i < 10 && i < head->records(); ++i)
        ctx.out() << "  " << head->seqNum(i) << ": "
                  << head->at(i).toString() << "\n";
    return 0;
}

} // namespace

IRAW_SCENARIO("workload_studio",
              "Synthetic workload characterization and trace-file "
              "round-trip",
              runWorkloadStudio);
