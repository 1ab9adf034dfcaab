/**
 * @file
 * Per-SRAM-block IRAW port guard (paper Sec. 4.3).
 *
 * Under interrupted-write operation, an entry written at cycle c is
 * only readable from cycle c + 1 + N, where N is the per-Vcc
 * stabilization cycle count.  For infrequently written cache-like
 * blocks the paper's mechanism is simply to stall *all* ports of the
 * block while the last fill stabilizes; this class implements that
 * counter ("keeping the ports busy to prevent the port arbiter from
 * issuing new accesses").
 */

#ifndef IRAW_MEMORY_IRAW_GUARD_HH
#define IRAW_MEMORY_IRAW_GUARD_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace iraw {
namespace memory {

/** Cycle type used throughout the timing model. */
using Cycle = uint64_t;

/** Port-stall guard for one SRAM block. */
class IrawPortGuard
{
  public:
    explicit IrawPortGuard(std::string name) : _name(std::move(name)) {}

    /**
     * Set the stabilization cycle count N for the current Vcc level
     * (0 disables the guard; reconfigured on every Vcc change).
     */
    void setStabilizationCycles(uint32_t n) { _n = n; }
    uint32_t stabilizationCycles() const { return _n; }

    /**
     * Record that a write/fill uses the port at @p cycle.  The cycle
     * may lie in the future (a fill whose data is still in flight);
     * only the stabilization window (cycle, cycle + N] blocks
     * accesses — accesses *before* the write see the old, stable
     * contents and proceed freely.
     */
    void
    noteWrite(Cycle cycle)
    {
        noteWrite(cycle, _n);
    }

    /**
     * Per-line variant (process variation): the written line needs
     * @p n stabilization cycles instead of the block-uniform count.
     * Ignored while the guard is disabled (uniform N == 0): the
     * chip is not in IRAW operation.
     */
    void
    noteWrite(Cycle cycle, uint32_t n)
    {
        if (_n == 0 || n == 0)
            return;
        _windows.push_back({cycle, n});
        _lastEnd = std::max(_lastEnd, cycle + n);
        ++_writes;
    }

    /** True iff an access at @p cycle lands in some write's window. */
    bool
    blocked(Cycle cycle) const
    {
        if (_n == 0 || cycle > _lastEnd)
            return false;
        for (const Window &w : _windows)
            if (w.cycle < cycle && cycle <= w.cycle + w.n)
                return true;
        return false;
    }

    /**
     * Earliest cycle an access arriving at @p cycle may proceed
     * (chaining across back-to-back stabilization windows); also
     * accumulates the imposed stall cycles for attribution.
     */
    Cycle
    resolve(Cycle cycle)
    {
        if (_n == 0)
            return cycle;
        // The common case: past every window noted so far, nothing
        // blocks.  The prune is observable (requests do not arrive in
        // cycle order, and a dropped window no longer blocks an
        // earlier request), so do what it would do here: drop all.
        if (cycle > _lastEnd) {
            if (_windows.size() >= kPruneSize)
                _windows.clear();
            return cycle;
        }
        prune(cycle);
        Cycle granted = cycle;
        bool moved = true;
        while (moved) {
            moved = false;
            for (const Window &w : _windows) {
                if (w.cycle < granted && granted <= w.cycle + w.n) {
                    granted = w.cycle + w.n + 1;
                    moved = true;
                }
            }
        }
        if (granted > cycle) {
            _stallCycles += granted - cycle;
            ++_stallEvents;
        }
        return granted;
    }

    uint64_t writes() const { return _writes; }
    uint64_t stallCycles() const { return _stallCycles; }
    uint64_t stallEvents() const { return _stallEvents; }
    const std::string &name() const { return _name; }

  private:
    /** One stabilization window: (cycle, cycle + n]. */
    struct Window
    {
        Cycle cycle = 0;
        uint32_t n = 0;
    };

    /** The prune runs once this many windows are noted. */
    static constexpr size_t kPruneSize = 16;

    /** Drop windows that ended before @p cycle. */
    void
    prune(Cycle cycle)
    {
        if (_windows.size() < kPruneSize)
            return;
        _windows.erase(
            std::remove_if(_windows.begin(), _windows.end(),
                           [cycle](const Window &w) {
                               return w.cycle + w.n < cycle;
                           }),
            _windows.end());
    }

    std::string _name;
    uint32_t _n = 0;
    std::vector<Window> _windows;
    Cycle _lastEnd = 0; //!< largest window end ever noted
    uint64_t _writes = 0;
    uint64_t _stallCycles = 0;
    uint64_t _stallEvents = 0;
};

} // namespace memory
} // namespace iraw

#endif // IRAW_MEMORY_IRAW_GUARD_HH
