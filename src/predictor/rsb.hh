/**
 * @file
 * Return stack buffer (RSB): predicts return targets.  Prediction-
 * only SRAM; under IRAW it runs unprotected (Sec. 4.5) — a return
 * that pops an entry pushed within the stabilization window *could*
 * read a corrupt target.  The class tracks the push cycle per entry
 * so the simulator can count (and optionally inject) such events,
 * and supports the paper's optional determinism mode that stalls
 * reads instead.
 */

#ifndef IRAW_PREDICTOR_RSB_HH
#define IRAW_PREDICTOR_RSB_HH

#include <cstdint>
#include <vector>

namespace iraw {
namespace predictor {

/** Circular return-address stack with IRAW-window tracking. */
class ReturnStackBuffer
{
  public:
    explicit ReturnStackBuffer(uint32_t depth = 8);

    /** Record a call: push the return address at @p cycle. */
    void push(uint64_t returnAddr, uint64_t cycle);

    /** Outcome of a pop. */
    struct PopResult
    {
        bool valid = false;        //!< stack was non-empty
        uint64_t target = 0;       //!< predicted return target
        bool inIrawWindow = false; //!< entry still stabilizing
    };

    /**
     * Predict a return at @p cycle.  With @p stabilizationCycles > 0
     * the result reports whether the popped entry was pushed within
     * the stabilization window (a potential corruption under the
     * paper's "ignore IRAW" policy for prediction blocks).
     */
    PopResult pop(uint64_t cycle, uint32_t stabilizationCycles);

    uint32_t depth() const { return _depth; }
    uint32_t occupancy() const { return _occupancy; }
    uint64_t pushes() const { return _pushes; }
    uint64_t pops() const { return _pops; }
    uint64_t irawWindowPops() const { return _irawWindowPops; }

    /** Storage bits (48-bit targets) for area accounting. */
    uint64_t
    totalBits() const
    {
        return static_cast<uint64_t>(_depth) * 48;
    }

  private:
    struct Entry
    {
        uint64_t target = 0;
        uint64_t pushCycle = 0;
    };

    uint32_t _depth = 0;
    std::vector<Entry> _stack;
    uint32_t _top = 0; //!< index of next free slot
    uint32_t _occupancy = 0;
    uint64_t _pushes = 0;
    uint64_t _pops = 0;
    uint64_t _irawWindowPops = 0;
};

} // namespace predictor
} // namespace iraw

#endif // IRAW_PREDICTOR_RSB_HH
