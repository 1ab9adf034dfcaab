#include "trace/analyzer.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitutils.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace trace {

using isa::MicroOp;
using isa::OpClass;

double
TraceStats::classFraction(OpClass c) const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(
               classCounts[static_cast<size_t>(c)]) /
           static_cast<double>(instructions);
}

double
TraceStats::depDistanceCdf(uint32_t d) const
{
    if (depSamples == 0)
        return 0.0;
    uint64_t acc = 0;
    for (uint32_t i = 0; i <= d && i < depDistHist.size(); ++i)
        acc += depDistHist[i];
    return static_cast<double>(acc) /
           static_cast<double>(depSamples);
}

TraceStats
TraceAnalyzer::analyze(const TraceBuffer &buffer, uint64_t maxInsts)
{
    TraceStats stats;

    // Last writer (by dynamic index) of each logical register.
    std::unordered_map<uint8_t, uint64_t> lastWriter;
    std::unordered_set<uint64_t> lines;
    std::unordered_set<uint64_t> pcs;
    std::vector<uint64_t> callStack; // dynamic index of each call
    double depSum = 0.0;

    const uint64_t n = std::min(maxInsts, buffer.records());
    for (uint64_t i = 0; i < n; ++i) {
        const MicroOp &op = buffer.ops()[i];

        ++stats.instructions;
        ++stats.classCounts[static_cast<size_t>(op.opClass)];
        pcs.insert(op.pc);

        auto noteSrc = [&](uint8_t reg) {
            auto it = lastWriter.find(reg);
            if (it == lastWriter.end())
                return;
            uint64_t d = i - it->second;
            depSum += static_cast<double>(d);
            ++stats.depSamples;
            size_t bucket =
                d < stats.depDistHist.size() - 1
                    ? static_cast<size_t>(d)
                    : stats.depDistHist.size() - 1;
            ++stats.depDistHist[bucket];
        };
        if (op.hasSrc1())
            noteSrc(op.src1);
        if (op.hasSrc2())
            noteSrc(op.src2);
        if (op.hasDst())
            lastWriter[op.dst] = i;

        if (op.isBranch()) {
            ++stats.branches;
            if (op.taken)
                ++stats.takenBranches;
        }
        if (op.opClass == OpClass::Call) {
            ++stats.calls;
            callStack.push_back(i);
        }
        if (op.opClass == OpClass::Return) {
            ++stats.returns;
            if (!callStack.empty()) {
                auto gap =
                    static_cast<uint32_t>(i - callStack.back());
                callStack.pop_back();
                if (!stats.minCallReturnGap ||
                    gap < *stats.minCallReturnGap)
                    stats.minCallReturnGap = gap;
            }
        }
        if (isMemOp(op.opClass)) {
            ++stats.memOps;
            lines.insert(alignDown(op.memAddr, 64));
        }
    }

    stats.distinctLines = lines.size();
    stats.distinctPcs = pcs.size();
    stats.meanDepDistance =
        stats.depSamples ? depSum / stats.depSamples : 0.0;
    return stats;
}

} // namespace trace
} // namespace iraw
