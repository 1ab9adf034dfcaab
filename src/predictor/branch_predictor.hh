/**
 * @file
 * Branch direction predictors: bimodal, gshare and a hybrid with a
 * chooser table — the "BP" block of Figure 3.  Prediction arrays are
 * prediction-only SRAM, so under IRAW they are left unprotected
 * (Sec. 4.5); the corruption model quantifying that choice lives in
 * iraw_corruption.hh.
 */

#ifndef IRAW_PREDICTOR_BRANCH_PREDICTOR_HH
#define IRAW_PREDICTOR_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace iraw {
namespace predictor {

/**
 * Prediction statistics shared by the direction predictors below.
 * Each predictor has the same members: predict(pc); update(pc,
 * taken), true iff it flipped the direction (uppermost) bit of the
 * indexed entry — the only updates whose IRAW window can corrupt a
 * subsequent read (Sec. 4.5); totalBits() (area accounting); and
 * entryIndex(pc) and numEntries() (IRAW analysis).  InlinePredictor
 * (predictor_dispatch.hh) selects one by kind.
 */
class BranchPredictor
{
  public:
    uint64_t predictions() const { return _predictions; }
    uint64_t mispredictions() const { return _mispredictions; }
    /** Fraction of predictions that were correct.  A branchless
     *  window (zero predictions) is perfectly predicted — nothing
     *  was ever mispredicted — matching sim::branchAccuracy(). */
    double
    accuracy() const
    {
        return _predictions
                   ? 1.0 - static_cast<double>(_mispredictions) /
                               _predictions
                   : 1.0;
    }

  protected:
    void
    notePrediction(bool correct)
    {
        ++_predictions;
        if (!correct)
            ++_mispredictions;
    }

  private:
    uint64_t _predictions = 0;
    uint64_t _mispredictions = 0;
};

/** Classic 2-bit-counter bimodal predictor. */
class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(uint32_t entries = 4096);

    bool predict(uint64_t pc);
    bool update(uint64_t pc, bool taken);
    uint64_t totalBits() const
    {
        return static_cast<uint64_t>(_counters.size()) * 2;
    }
    uint32_t entryIndex(uint64_t pc) const;
    uint32_t numEntries() const
    {
        return static_cast<uint32_t>(_counters.size());
    }

  private:
    std::vector<uint8_t> _counters; //!< 2-bit saturating counters
};

/** Global-history gshare predictor. */
class GsharePredictor : public BranchPredictor
{
  public:
    GsharePredictor(uint32_t entries = 4096,
                    uint32_t historyBits = 12);

    bool predict(uint64_t pc);
    bool update(uint64_t pc, bool taken);
    uint64_t totalBits() const
    {
        return static_cast<uint64_t>(_counters.size()) * 2 +
               _historyBits;
    }
    uint32_t entryIndex(uint64_t pc) const;
    uint32_t numEntries() const
    {
        return static_cast<uint32_t>(_counters.size());
    }

  private:
    std::vector<uint8_t> _counters;
    uint32_t _historyBits = 0;
    uint32_t _history = 0;
};

/** Tournament hybrid: bimodal + gshare with a 2-bit chooser. */
class HybridPredictor : public BranchPredictor
{
  public:
    HybridPredictor(uint32_t entries = 4096,
                    uint32_t historyBits = 12);

    bool predict(uint64_t pc);
    bool update(uint64_t pc, bool taken);
    uint64_t totalBits() const;
    uint32_t entryIndex(uint64_t pc) const;
    uint32_t numEntries() const;

  private:
    BimodalPredictor _bimodal;
    GsharePredictor _gshare;
    std::vector<uint8_t> _chooser;
    bool _lastBimodal = false;
    bool _lastGshare = false;
};

} // namespace predictor
} // namespace iraw

#endif // IRAW_PREDICTOR_BRANCH_PREDICTOR_HH
