/**
 * @file
 * IRAW-corruption analysis for prediction-only blocks (Sec. 4.5).
 *
 * The paper leaves the BP and RSB unprotected because a corrupted
 * prediction only costs performance.  It reports a negligible
 * potential extra misprediction rate (0.0017% on average) because a
 * BP read only conflicts when it hits the *same entry* that was
 * updated within the last N cycles *and* that update flipped the
 * counter's uppermost (direction) bit.  This tracker measures exactly
 * that event rate on top of any BranchPredictor.
 */

#ifndef IRAW_PREDICTOR_IRAW_CORRUPTION_HH
#define IRAW_PREDICTOR_IRAW_CORRUPTION_HH

#include <cstdint>
#include <unordered_map>

namespace iraw {
namespace predictor {

/** Counts reads of still-stabilizing predictor entries. */
class CorruptionTracker
{
  public:
    explicit CorruptionTracker(uint32_t stabilizationCycles = 1)
        : _n(stabilizationCycles)
    {}

    void setStabilizationCycles(uint32_t n) { _n = n; }

    /**
     * Record an update of @p entry at @p cycle.
     * @param flippedDirectionBit true iff the update changed the
     *        counter's MSB (only those updates can corrupt a
     *        subsequent read, per the paper).
     */
    void
    noteUpdate(uint32_t entry, uint64_t cycle,
               bool flippedDirectionBit)
    {
        if (_n == 0)
            return;
        if (flippedDirectionBit)
            _lastFlip[entry] = cycle;
        ++_updates;
    }

    /** Record a read of @p entry at @p cycle; returns true when the
     *  read lands in a stabilization window (potential corruption). */
    bool
    noteRead(uint32_t entry, uint64_t cycle)
    {
        ++_reads;
        if (_n == 0)
            return false;
        auto it = _lastFlip.find(entry);
        if (it != _lastFlip.end() && cycle <= it->second + _n &&
            cycle > it->second) {
            ++_conflicts;
            return true;
        }
        return false;
    }

    uint64_t reads() const { return _reads; }
    uint64_t updates() const { return _updates; }
    uint64_t conflicts() const { return _conflicts; }

    /** Potential extra misprediction rate (conflicts per read). */
    double
    conflictRate() const
    {
        return _reads ? static_cast<double>(_conflicts) / _reads
                      : 0.0;
    }

  private:
    uint32_t _n = 0;
    std::unordered_map<uint32_t, uint64_t> _lastFlip;
    uint64_t _reads = 0;
    uint64_t _updates = 0;
    uint64_t _conflicts = 0;
};

} // namespace predictor
} // namespace iraw

#endif // IRAW_PREDICTOR_IRAW_CORRUPTION_HH
