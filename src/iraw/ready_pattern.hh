/**
 * @file
 * Scoreboard shift-register initialization patterns (paper Sec. 4.1,
 * Figures 6 and 8).
 *
 * A register's readiness is tracked by a B-bit shift register whose
 * most significant bit means "a consumer may issue now".  Every cycle
 * the register shifts left one position, replicating its least
 * significant bit.  When a producer issues, the register is
 * initialized, from MSB to LSB, with:
 *
 *   (I)   as many 0s as the producer's execution latency,
 *   (II)  as many 1s as there are bypass levels,
 *   (III) as many 0s as stabilization cycles N (the IRAW bubble),
 *   (IV)  1s in the remaining bits.
 *
 * With N = 0 this degenerates to the conventional pattern (latency 0s
 * followed by 1s): the same hardware serves both modes, which is how
 * the paper reconfigures per Vcc (Sec. 4.1.3).
 */

#ifndef IRAW_IRAW_READY_PATTERN_HH
#define IRAW_IRAW_READY_PATTERN_HH

#include <cstdint>
#include <string>

namespace iraw {
namespace mechanism {

/** Shift-register word; bit (bits-1) is the MSB / "ready" bit. */
using ReadyPattern = uint32_t;

/** Maximum supported shift-register width. */
constexpr uint32_t kMaxPatternBits = 31;

/**
 * Build the initialization pattern.
 *
 * @param bits          shift-register width B
 * @param latency       producer execution latency (section I zeros);
 *                      0 means the value is available this cycle
 *                      (event-driven wakeup of a completed producer)
 * @param bypassLevels  bypass network depth (section II ones)
 * @param stabilization IRAW bubble N (section III zeros)
 * @return the pattern, MSB-aligned in the low @p bits bits
 *
 * Requires latency + bypassLevels + stabilization < bits so that at
 * least one trailing 1 exists (otherwise the register could never
 * signal readiness).
 */
ReadyPattern buildReadyPattern(uint32_t bits, uint32_t latency,
                               uint32_t bypassLevels,
                               uint32_t stabilization);

/** The conventional (IRAW-off) pattern: latency 0s then 1s. */
inline ReadyPattern
buildBaselinePattern(uint32_t bits, uint32_t latency)
{
    return buildReadyPattern(bits, latency, 0, 0);
}

/** One shift step: left by one, replicating the LSB. */
inline ReadyPattern
shiftPattern(ReadyPattern p, uint32_t bits)
{
    ReadyPattern mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
    return ((p << 1) | (p & 1u)) & mask;
}

/** MSB test: may a consumer issue this cycle? */
inline bool
patternReady(ReadyPattern p, uint32_t bits)
{
    return (p >> (bits - 1)) & 1u;
}

/** All-ones: the register is fully stabilized and quiescent. */
inline bool
patternQuiescent(ReadyPattern p, uint32_t bits)
{
    ReadyPattern mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
    return (p & mask) == mask;
}

/** Render as a bit string, MSB first (for diagnostics/tests). */
std::string patternToString(ReadyPattern p, uint32_t bits);

} // namespace mechanism
} // namespace iraw

#endif // IRAW_IRAW_READY_PATTERN_HH
