/**
 * @file
 * Branch-predictor selection by kind, the one dispatch path.
 *
 * InlinePredictor stores the concrete predictor in a std::variant
 * and dispatches with one switch; the calls inside the visitor are
 * direct and inline.  predictAndTrain() additionally fuses the fetch
 * stage's per-branch entryIndex/predict/update triple into a single
 * dispatch.
 */

#ifndef IRAW_PREDICTOR_PREDICTOR_DISPATCH_HH
#define IRAW_PREDICTOR_PREDICTOR_DISPATCH_HH

#include <cstdint>
#include <string>
#include <variant>

#include "predictor/branch_predictor.hh"

namespace iraw {
namespace predictor {

/** Everything the fetch stage needs from one branch lookup. */
struct PredictOutcome
{
    uint32_t index = 0;   //!< table entry read (for IRAW analysis)
    bool taken = false;   //!< predicted direction
    bool flipped = false; //!< update flipped the direction bit
};

/** Value-semantics predictor with inline (non-virtual) dispatch. */
class InlinePredictor
{
  public:
    /** Kinds: bimodal, gshare, hybrid; anything else is fatal. */
    explicit InlinePredictor(const std::string &kind,
                             uint32_t entries = 4096,
                             uint32_t historyBits = 12);

    bool
    predict(uint64_t pc)
    {
        return std::visit(
            [&](auto &p) { return p.predict(pc); }, _impl);
    }

    bool
    update(uint64_t pc, bool taken)
    {
        return std::visit(
            [&](auto &p) { return p.update(pc, taken); }, _impl);
    }

    uint32_t
    entryIndex(uint64_t pc) const
    {
        return std::visit(
            [&](const auto &p) { return p.entryIndex(pc); }, _impl);
    }

    /**
     * The fetch stage's per-branch sequence — the entry index with
     * the pre-update history, the fetch-time prediction, and whether
     * training flipped the direction bit — in one dispatch.
     */
    PredictOutcome
    predictAndTrain(uint64_t pc, bool actualTaken)
    {
        return std::visit(
            [&](auto &p) {
                PredictOutcome o;
                o.index = p.entryIndex(pc);
                o.taken = p.predict(pc);
                o.flipped = p.update(pc, actualTaken);
                return o;
            },
            _impl);
    }

    uint64_t
    totalBits() const
    {
        return std::visit(
            [](const auto &p) { return p.totalBits(); }, _impl);
    }

    uint32_t
    numEntries() const
    {
        return std::visit(
            [](const auto &p) { return p.numEntries(); }, _impl);
    }

    uint64_t
    predictions() const
    {
        return std::visit(
            [](const auto &p) { return p.predictions(); }, _impl);
    }

    uint64_t
    mispredictions() const
    {
        return std::visit(
            [](const auto &p) { return p.mispredictions(); },
            _impl);
    }

    double
    accuracy() const
    {
        return std::visit(
            [](const auto &p) { return p.accuracy(); }, _impl);
    }

  private:
    using Impl = std::variant<BimodalPredictor, GsharePredictor,
                              HybridPredictor>;

    static Impl makeImpl(const std::string &kind, uint32_t entries,
                         uint32_t historyBits);

    Impl _impl;
};

} // namespace predictor
} // namespace iraw

#endif // IRAW_PREDICTOR_PREDICTOR_DISPATCH_HH
