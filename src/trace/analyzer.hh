/**
 * @file
 * Offline trace statistics: instruction mix, dependency distances,
 * branch behaviour and memory footprint.  Used by tests to verify the
 * generator honours its profile, and by the examples to characterize
 * workloads.
 */

#ifndef IRAW_TRACE_ANALYZER_HH
#define IRAW_TRACE_ANALYZER_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "isa/microop.hh"

namespace iraw {
namespace trace {

/** Aggregate statistics over a (prefix of a) trace. */
struct TraceStats
{
    uint64_t instructions = 0;
    std::array<uint64_t, isa::kNumOpClasses> classCounts{};

    uint64_t branches = 0;
    uint64_t takenBranches = 0;

    uint64_t memOps = 0;
    uint64_t distinctLines = 0; //!< distinct 64B lines touched
    uint64_t distinctPcs = 0;

    /** Mean producer->consumer register distance (in micro-ops). */
    double meanDepDistance = 0.0;
    /** Fraction of source operands with distance <= d. */
    double depDistanceCdf(uint32_t d) const;

    double classFraction(isa::OpClass c) const;
    double takenFraction() const
    {
        return branches ? static_cast<double>(takenBranches) / branches
                        : 0.0;
    }

    /** Histogram of dependency distances (1..64, overflow above). */
    std::array<uint64_t, 65> depDistHist{};
    uint64_t depSamples = 0;

    /** Call/return pairing depth check results. */
    uint64_t calls = 0;
    uint64_t returns = 0;
    /** Shortest call->return distance; empty when no call was
     *  matched by a return. */
    std::optional<uint32_t> minCallReturnGap;
};

class TraceBuffer;

/** Walks a trace and accumulates TraceStats. */
class TraceAnalyzer
{
  public:
    /** Analyze the first @p maxInsts micro-ops of @p buffer. */
    static TraceStats analyze(const TraceBuffer &buffer,
                              uint64_t maxInsts);
};

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_ANALYZER_HH
