#include "predictor/branch_predictor.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace predictor {

namespace {

/** 2-bit saturating counter update. */
uint8_t
saturate(uint8_t counter, bool taken)
{
    if (taken)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

} // namespace

BimodalPredictor::BimodalPredictor(uint32_t entries)
{
    fatalIf(!isPowerOf2(entries),
            "bimodal: entries must be a power of two");
    _counters.assign(entries, 2); // weakly taken
}

uint32_t
BimodalPredictor::entryIndex(uint64_t pc) const
{
    return static_cast<uint32_t>((pc >> 2) &
                                 (_counters.size() - 1));
}

bool
BimodalPredictor::predict(uint64_t pc)
{
    return _counters[entryIndex(pc)] >= 2;
}

bool
BimodalPredictor::update(uint64_t pc, bool taken)
{
    uint32_t idx = entryIndex(pc);
    bool before = _counters[idx] >= 2;
    notePrediction(before == taken);
    _counters[idx] = saturate(_counters[idx], taken);
    return (_counters[idx] >= 2) != before;
}

GsharePredictor::GsharePredictor(uint32_t entries,
                                 uint32_t historyBits)
    : _historyBits(historyBits)
{
    fatalIf(!isPowerOf2(entries),
            "gshare: entries must be a power of two");
    fatalIf(historyBits == 0 || historyBits > 24,
            "gshare: historyBits outside [1, 24]");
    _counters.assign(entries, 2);
}

uint32_t
GsharePredictor::entryIndex(uint64_t pc) const
{
    uint64_t folded = (pc >> 2) ^ _history;
    return static_cast<uint32_t>(folded & (_counters.size() - 1));
}

bool
GsharePredictor::predict(uint64_t pc)
{
    return _counters[entryIndex(pc)] >= 2;
}

bool
GsharePredictor::update(uint64_t pc, bool taken)
{
    uint32_t idx = entryIndex(pc);
    bool before = _counters[idx] >= 2;
    notePrediction(before == taken);
    _counters[idx] = saturate(_counters[idx], taken);
    _history = ((_history << 1) | (taken ? 1u : 0u)) &
               ((1u << _historyBits) - 1);
    return (_counters[idx] >= 2) != before;
}

HybridPredictor::HybridPredictor(uint32_t entries,
                                 uint32_t historyBits)
    : _bimodal(entries), _gshare(entries, historyBits)
{
    _chooser.assign(entries, 2); // weakly prefer gshare
}

bool
HybridPredictor::predict(uint64_t pc)
{
    _lastBimodal = _bimodal.predict(pc);
    _lastGshare = _gshare.predict(pc);
    uint32_t idx = _bimodal.entryIndex(pc);
    return _chooser[idx] >= 2 ? _lastGshare : _lastBimodal;
}

bool
HybridPredictor::update(uint64_t pc, bool taken)
{
    uint32_t idx = _bimodal.entryIndex(pc);
    bool choseGshare = _chooser[idx] >= 2;
    bool prediction = choseGshare ? _lastGshare : _lastBimodal;
    notePrediction(prediction == taken);

    // Train the chooser toward whichever component was right.
    if (_lastGshare != _lastBimodal)
        _chooser[idx] = saturate(_chooser[idx], _lastGshare == taken);

    bool flippedBimodal = _bimodal.update(pc, taken);
    bool flippedGshare = _gshare.update(pc, taken);
    return choseGshare ? flippedGshare : flippedBimodal;
}

uint64_t
HybridPredictor::totalBits() const
{
    return _bimodal.totalBits() + _gshare.totalBits() +
           static_cast<uint64_t>(_chooser.size()) * 2;
}

uint32_t
HybridPredictor::entryIndex(uint64_t pc) const
{
    return _gshare.entryIndex(pc);
}

uint32_t
HybridPredictor::numEntries() const
{
    return _gshare.numEntries();
}

} // namespace predictor
} // namespace iraw
