/**
 * @file
 * The centralized register scoreboard (paper Sec. 4.1.1, Figure 6),
 * extended with the IRAW bits of Sec. 4.1.2 (Figure 8).
 *
 * The hardware keeps one B-bit shift register per logical register,
 * set by each producer to L zeros (its latency), as many ones as
 * there are bypass levels, N zeros (the IRAW bubble) and ones, and
 * shifted left every cycle; the MSB says "a consumer may issue now".
 * Three cycles fix that sequence, so the model keeps two per
 * register: the cycle the value arrives (issue + L) and the cycle
 * the register file entry is stable (arrival + bypass + N, or the
 * arrival itself when N = 0).  A consumer may issue from the arrival
 * until the bypass window closes, and again from the stable cycle
 * on.  mechanism::buildReadyPattern() remains the bit-level
 * specification; ScoreboardTest.MatchesFigure8Patterns checks every
 * read against it.
 *
 * A producer longer than the shift registers reach (a divide, a load
 * miss) is set the same way: the hardware's event-driven wakeup
 * writes the latency-0 pattern when the value arrives, which reads
 * exactly as the closed form.
 *
 * The scoreboard also answers the *shadow* query: would the register
 * be ready under conventional (IRAW-off) operation?  The shadow
 * changes no issue decision; it lets the simulator attribute a
 * blocked issue to the IRAW bubble specifically (ready in the
 * shadow, not ready in the real scoreboard) — the measurement behind
 * the paper's "13.2% of instructions are delayed" and the 8-10%
 * stall breakdown.
 *
 * The scoreboard has no clock of its own: every query takes the
 * pipeline's current cycle.
 */

#ifndef IRAW_CORE_SCOREBOARD_HH
#define IRAW_CORE_SCOREBOARD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace iraw {
namespace core {

/** The scoreboard. */
class Scoreboard
{
  public:
    /** @param bypassLevels bypass network depth */
    explicit Scoreboard(uint32_t bypassLevels)
        : _bypassLevels(bypassLevels)
    {}

    /**
     * Reconfigure for a Vcc level (Sec. 4.1.3): number of
     * stabilization cycles N given to new producers.  Producers
     * already in flight keep their old timing, exactly as the
     * hardware would behave across a DVFS transition.  Clears any
     * per-register stabilization map.
     */
    void
    setStabilizationCycles(uint32_t n)
    {
        _n = n;
        _lineN.clear();
    }

    /**
     * Process-variation mode: one stabilization count per register
     * (a ChipSample's RF map); new producers take their destination
     * register's own N.  A map whose entries all equal the uniform
     * N is bitwise identical to uniform operation.
     */
    void setStabilizationMap(const std::vector<uint32_t> &perRegN);

    /** Stabilization count applied to producers of @p reg. */
    uint32_t
    stabilizationCyclesFor(isa::RegId reg) const
    {
        return _lineN.empty() ? _n : _lineN[reg];
    }

    /** May a consumer of @p reg issue in cycle @p now? */
    bool isReady(isa::RegId reg, uint64_t now) const;

    /** Would it be ready if IRAW avoidance were off? (attribution) */
    bool isReadyShadow(isa::RegId reg, uint64_t now) const;

    /** Has the last producer of @p reg not delivered its value by
     *  cycle @p now?  (The WAW check.) */
    bool
    writePending(isa::RegId reg, uint64_t now) const
    {
        return now < at(reg).readyAt;
    }

    /**
     * A producer of @p reg issued in cycle @p now; its value arrives
     * in cycle @p readyAt, which must be later than @p now.
     */
    void setProducer(isa::RegId reg, uint64_t readyAt, uint64_t now);

  private:
    struct Reg
    {
        uint64_t readyAt = 0;  //!< the value arrives (bypass opens)
        uint64_t stableAt = 0; //!< the RF entry is stable
    };

    const Reg &
    at(isa::RegId reg) const
    {
        panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
                reg);
        return _regs[reg];
    }

    uint32_t _bypassLevels = 0;
    uint32_t _n = 0;

    /** Per-register stabilization counts (empty = uniform _n). */
    std::vector<uint32_t> _lineN;

    /** Every register starts ready and stable. */
    std::array<Reg, isa::kNumLogicalRegs> _regs{};
};

} // namespace core
} // namespace iraw

#endif // IRAW_CORE_SCOREBOARD_HH
