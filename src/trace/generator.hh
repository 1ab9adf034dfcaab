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
#include <vector>

#include "common/rng.hh"
#include "isa/microop.hh"
#include "trace/workload.hh"

namespace iraw {
namespace trace {

/**
 * Deterministic, unbounded synthetic trace source: the constructor
 * builds the static program, next() walks it.
 */
class SyntheticTraceGenerator
{
  public:
    /**
     * @param profile workload category parameters
     * @param seed RNG seed; (profile, seed) fully determines the trace
     */
    SyntheticTraceGenerator(const WorkloadProfile &profile,
                            uint64_t seed);

    /**
     * Overwrite @p op with the next micro-op.  Writing in place lets
     * materializeSynthetic build each op inside its trace buffer.
     */
    void next(isa::MicroOp &op);

    /** Base virtual address of the synthetic code region. */
    static constexpr uint64_t kCodeBase = 0x0000000000400000ULL;
    /** Base virtual address of the synthetic data region. */
    static constexpr uint64_t kDataBase = 0x0000000010000000ULL;

  private:
    /** One slot of the synthetic static program; widest fields first,
     *  so a slot packs into 24 bytes. */
    struct StaticSlot
    {
        // Branch slots.
        double biasTaken = 0.0;
        uint32_t takenTarget = 0;
        // Call slots.
        uint32_t calleeEntry = 0;
        // Memory slots.
        uint32_t streamArray = 0; //!< index into the shared array pool
        uint8_t accessSize = 4;
        bool streaming = false;
        isa::OpClass cls = isa::OpClass::IntAlu;
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

    /** The last N values pushed; older ones drop out. */
    template <typename T, uint32_t N>
    class History
    {
      public:
        bool empty() const { return _pushed == 0; }
        uint32_t
        size() const
        {
            return _pushed < N ? static_cast<uint32_t>(_pushed) : N;
        }
        void push(T v) { _items[_pushed++ % N] = v; }
        /** The @p d-th most recent value: 1 is the newest, and
         *  @p d must be in [1, size()]. */
        T recent(uint32_t d) const { return _items[(_pushed - d) % N]; }

      private:
        std::array<T, N> _items{};
        uint64_t _pushed = 0;
    };

    static constexpr uint32_t kRecentDepth = 64;
    static constexpr uint32_t kRecentStores = 4;
    using RegHistory = History<isa::RegId, kRecentDepth>;

    void buildStaticProgram();
    void emitAt(uint32_t pos, isa::MicroOp &op);

    isa::RegId pickIntSource();
    isa::RegId pickFpSource();
    isa::RegId pickSource(const RegHistory &recent, bool fp);
    uint64_t pickMemAddr(StaticSlot &slot);

    WorkloadProfile _profile;

    Pcg32 _rng;
    std::vector<StaticSlot> _slots;
    std::vector<StreamArray> _streams;

    static constexpr uint32_t kNumStreamArrays = 8;

    // Dynamic state.
    uint32_t _pos = 0;
    std::vector<uint32_t> _callStack;
    RegHistory _recentIntDst;
    RegHistory _recentFpDst;
    History<uint64_t, kRecentStores> _recentStoreAddrs;
    uint32_t _nextIntDst = 0;
    uint32_t _nextFpDst = 0;

    static constexpr uint32_t kMaxCallDepth = 64;
};

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_GENERATOR_HH
