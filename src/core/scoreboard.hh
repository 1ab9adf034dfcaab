/**
 * @file
 * The centralized register scoreboard (paper Sec. 4.1.1, Figure 6),
 * extended with the IRAW bits of Sec. 4.1.2 (Figure 8).
 *
 * One shift register per logical register.  Each cycle every shift
 * register shifts left one position, replicating its LSB; the MSB
 * says "a consumer of this register may issue now".
 *
 * The software model evaluates the shift lazily: each register
 * stores the pattern as initialized by its producer plus the cycle
 * it was set, and a read derives "the pattern after (now - setCycle)
 * shifts" with one shift-and-mask.  That makes tick() O(1) — a
 * single clock increment for the whole scoreboard — instead of a
 * walk over every in-flight register per cycle, while every read is
 * bit-for-bit what the eagerly shifted hardware register would hold.
 *
 * The scoreboard also maintains a *shadow* copy running the
 * conventional (IRAW-off) patterns.  The shadow changes no issue
 * decision; it exists so the simulator can attribute a blocked issue
 * to the IRAW bubble specifically (ready in the shadow, not ready in
 * the real scoreboard) — the measurement behind the paper's "13.2%
 * of instructions are delayed" and the 8-10% stall breakdown.
 */

#ifndef IRAW_CORE_SCOREBOARD_HH
#define IRAW_CORE_SCOREBOARD_HH

#include <cstdint>
#include <vector>

#include "iraw/ready_pattern.hh"
#include "isa/registers.hh"

namespace iraw {
namespace core {

/** The scoreboard. */
class Scoreboard
{
  public:
    /**
     * @param bits          shift-register width B
     * @param bypassLevels  bypass network depth
     */
    Scoreboard(uint32_t bits, uint32_t bypassLevels);

    /**
     * Reconfigure for a Vcc level (Sec. 4.1.3): number of
     * stabilization cycles N encoded in newly set patterns.
     * Patterns already in flight keep their old timing, exactly as
     * the hardware would behave across a DVFS transition.  Clears
     * any per-register stabilization map.
     */
    void
    setStabilizationCycles(uint32_t n)
    {
        _n = n;
        _lineN.clear();
    }
    uint32_t stabilizationCycles() const { return _n; }

    /**
     * Process-variation mode: one stabilization count per register
     * (a ChipSample's RF map).  Newly set producer patterns encode
     * the destination register's own N; @p worst (the map maximum)
     * becomes the configured N for capacity accounting
     * (maxEncodableLatency).  An empty map returns to uniform
     * operation.  A map whose entries all equal the uniform N is
     * bitwise identical to uniform operation.
     */
    void setStabilizationMap(const std::vector<uint32_t> &perRegN,
                             uint32_t worst);

    /** Stabilization count applied to producers of @p reg. */
    uint32_t
    stabilizationCyclesFor(isa::RegId reg) const
    {
        return _lineN.empty() ? _n : _lineN[reg];
    }

    /** Shift every register one position (call once per cycle). */
    void tick() { ++_now; }

    /**
     * Shift every register @p cycles positions at once (idle
     * windows, e.g. a Vcc-switch settle).  Equivalent to calling
     * tick() @p cycles times.
     */
    void advance(uint64_t cycles) { _now += cycles; }

    /** May a consumer of @p reg issue this cycle? */
    bool isReady(isa::RegId reg) const;

    /** Would it be ready if IRAW avoidance were off? (attribution) */
    bool isReadyShadow(isa::RegId reg) const;

    /**
     * A producer of @p reg issued with execution latency
     * @p latency <= B-1.  Initializes the Figure 8 pattern.
     */
    void setProducer(isa::RegId reg, uint32_t latency);

    /**
     * A producer whose latency exceeds maxEncodableLatency() issued
     * (divide, load miss); its value is available at
     * @p readyCycle, on the clock tick() and advance() drive.  The
     * register reads not-ready until then, and from then on as a
     * single-cycle producer completing that cycle (bypass ones, N
     * zeros, trailing ones).  N is the one in force now: the
     * pipeline reconfigures only with no write in flight.
     */
    void setLongLatencyProducer(isa::RegId reg, uint64_t readyCycle);

    /** True iff no producer is in flight for @p reg. */
    bool quiescent(isa::RegId reg) const;

    /** Largest producer latency the shift registers can encode
     *  (IRAW bits plus one trailing ready bit must still fit). */
    uint32_t
    maxEncodableLatency() const
    {
        return _bits - 1 - _bypassLevels - _n;
    }

    uint32_t bits() const { return _bits; }
    uint32_t bypassLevels() const { return _bypassLevels; }

    /** Raw pattern access for tests/diagnostics: the register's
     *  current (shifted) contents. */
    mechanism::ReadyPattern rawPattern(isa::RegId reg) const;

  private:
    /** Shifts applied so far to @p reg's stored pattern. */
    uint64_t
    age(isa::RegId reg) const
    {
        return _now - _setCycle[reg];
    }

    /** A long-latency producer of @p reg has not yet completed: its
     *  pattern only starts shifting at its ready cycle. */
    bool
    awaitingLongLatency(isa::RegId reg) const
    {
        return _now < _setCycle[reg];
    }

    /** The stored pattern's MSB after @p shifts left-shifts (each
     *  replicating the LSB) — the hardware ready bit.  Bit B-1-k
     *  for k < B-1; every later cycle reads the replicated LSB. */
    bool
    readyAt(mechanism::ReadyPattern p, uint64_t shifts) const
    {
        uint32_t bit = shifts < _bits - 1
                           ? _bits - 1 - static_cast<uint32_t>(shifts)
                           : 0;
        return (p >> bit) & 1u;
    }

    /** The full pattern after @p shifts (diagnostics paths only). */
    mechanism::ReadyPattern
    shiftedBy(mechanism::ReadyPattern p, uint64_t shifts) const;

    uint32_t _bits = 0;
    uint32_t _bypassLevels = 0;
    uint32_t _n = 0;

    // Struct-of-arrays register state: parallel per-register arrays
    // of the as-set real pattern, the as-set shadow pattern, and the
    // cycle both age from (in the future while a long-latency
    // producer is in flight).
    std::vector<mechanism::ReadyPattern> _regs;
    std::vector<mechanism::ReadyPattern> _shadow;
    std::vector<uint64_t> _setCycle;

    /** Per-register stabilization counts (empty = uniform _n). */
    std::vector<uint32_t> _lineN;

    /** The scoreboard's own clock: total shifts applied so far. */
    uint64_t _now = 0;

    mechanism::ReadyPattern _ones = 0; //!< the quiescent pattern

    // buildReadyPattern() per producer was measurable in the issue
    // loop; both pattern families are precomputed once for every
    // encodable (N, latency), so a change of N rebuilds nothing.
    mechanism::ReadyPatternLut _lut;
};

} // namespace core
} // namespace iraw

#endif // IRAW_CORE_SCOREBOARD_HH
