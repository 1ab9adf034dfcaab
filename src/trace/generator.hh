/**
 * @file
 * Synthetic dynamic-trace generator.
 *
 * Builds a deterministic static "program" from a WorkloadProfile (an
 * array of micro-op slots with per-slot branch biases/targets, memory
 * access patterns and call sites) and then walks it, producing a
 * dynamic micro-op stream with:
 *  - PC-correlated branch behaviour (so real predictors achieve
 *    realistic accuracies),
 *  - controlled register dependency distances (the knob behind the
 *    paper's 13.2% RF-IRAW-delayed instructions),
 *  - mixed streaming/random memory references over a configurable
 *    footprint (drives cache miss rates and hence fill-stall IRAW
 *    events),
 *  - store-to-load forwarding patterns (exercises the STable's full-
 *    and set-match paths),
 *  - calls/returns with bounded function bodies (exercises the RSB).
 */

#ifndef IRAW_TRACE_GENERATOR_HH
#define IRAW_TRACE_GENERATOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "isa/microop.hh"
#include "trace/workload.hh"

namespace iraw {
namespace trace {

/** Deterministic synthetic trace source. */
class SyntheticTraceGenerator
{
  public:
    /**
     * @param profile workload category parameters
     * @param seed RNG seed; (profile, seed) fully determines the trace
     * @param maxInsts trace length; 0 means unbounded
     */
    SyntheticTraceGenerator(const WorkloadProfile &profile,
                            uint64_t seed, uint64_t maxInsts = 0);

    /** Next micro-op, or std::nullopt past maxInsts. */
    std::optional<isa::MicroOp> next();

    /** Base virtual address of the synthetic code region. */
    static constexpr uint64_t kCodeBase = 0x0000000000400000ULL;
    /** Base virtual address of the synthetic data region. */
    static constexpr uint64_t kDataBase = 0x0000000010000000ULL;

  private:
    /** One slot of the synthetic static program. */
    struct StaticSlot
    {
        isa::OpClass cls = isa::OpClass::IntAlu;
        // Branch slots.
        double biasTaken = 0.0;
        uint32_t takenTarget = 0;
        // Call slots.
        uint32_t calleeEntry = 0;
        // Memory slots.
        bool streaming = false;
        uint32_t streamArray = 0; //!< index into the shared array pool
        uint8_t accessSize = 4;
    };

    /**
     * A shared data array streamed by many static slots — programs
     * stream through a handful of arrays with many access sites, not
     * one private region per instruction.
     */
    struct StreamArray
    {
        uint64_t base = 0;
        uint32_t size = 0;   //!< bytes
        uint32_t stride = 4;
        uint32_t pos = 0;    //!< current offset (mutable state)
    };

    void buildStaticProgram();
    isa::MicroOp emitAt(uint32_t pos);

    isa::RegId pickIntSource();
    isa::RegId pickFpSource();
    isa::RegId pickSource(const std::deque<isa::RegId> &recent,
                          bool fp);
    uint64_t pickMemAddr(StaticSlot &slot);

    WorkloadProfile _profile;
    uint64_t _maxInsts = 0;

    Pcg32 _rng;
    std::vector<StaticSlot> _slots;
    std::vector<StreamArray> _streams;

    static constexpr uint32_t kNumStreamArrays = 8;

    // Dynamic state.
    uint64_t _emitted = 0;
    uint32_t _pos = 0;
    std::vector<uint32_t> _callStack;
    std::deque<isa::RegId> _recentIntDst;
    std::deque<isa::RegId> _recentFpDst;
    std::deque<uint64_t> _recentStoreAddrs;
    uint32_t _nextIntDst = 0;
    uint32_t _nextFpDst = 0;

    static constexpr size_t kRecentDepth = 64;
    static constexpr size_t kRecentStores = 4;
    static constexpr uint32_t kMaxCallDepth = 64;
};

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_GENERATOR_HH
