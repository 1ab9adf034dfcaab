#include "memory/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace memory {

uint64_t
CacheParams::totalBits() const
{
    // Data + tag (assume 32-bit physical tags) + valid/dirty/LRU
    // state per line.
    uint64_t lines = sizeBytes / lineBytes;
    uint64_t dataBits = sizeBytes * 8;
    uint64_t tagBits = lines * 32;
    uint64_t stateBits = lines * 8;
    return dataBits + tagBits + stateBits;
}

Cache::Cache(const CacheParams &params) : _params(params)
{
    fatalIf(_params.lineBytes == 0 || !isPowerOf2(_params.lineBytes),
            "cache %s: lineBytes must be a power of two",
            _params.name.c_str());
    fatalIf(_params.assoc == 0, "cache %s: assoc must be >= 1",
            _params.name.c_str());
    fatalIf(_params.sizeBytes %
                    (static_cast<uint64_t>(_params.lineBytes) *
                     _params.assoc) !=
                0,
            "cache %s: size %llu not divisible by assoc*lineBytes",
            _params.name.c_str(),
            static_cast<unsigned long long>(_params.sizeBytes));
    fatalIf(!isPowerOf2(_params.numSets()),
            "cache %s: number of sets must be a power of two",
            _params.name.c_str());
    _lineShift = floorLog2(_params.lineBytes);
    _setShift = floorLog2(_params.numSets());
    _tagShift = _lineShift + _setShift;
    _setMask = _params.numSets() - 1;
    _lines.assign(static_cast<size_t>(_params.numSets()) *
                      _params.assoc,
                  Line{});
}

Cache::Line *
Cache::findLine(uint64_t addr)
{
    uint64_t tag = tagOf(addr);
    size_t base =
        static_cast<size_t>(setIndex(addr)) * _params.assoc;
    for (uint32_t w = 0; w < _params.assoc; ++w) {
        Line &line = _lines[base + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(uint64_t addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

bool
Cache::probe(uint64_t addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::access(uint64_t addr, bool isWrite)
{
    ++_accesses;
    Line *line = findLine(addr);
    if (!line)
        return false;
    ++_hits;
    line->lru = ++_lruClock;
    if (isWrite)
        line->dirty = true;
    return true;
}

Victim
Cache::fill(uint64_t addr, bool dirty)
{
    ++_fills;
    size_t base =
        static_cast<size_t>(setIndex(addr)) * _params.assoc;

    // Refill of a resident line (e.g., an upgrade) just updates state.
    if (Line *hit = findLine(addr)) {
        hit->lru = ++_lruClock;
        hit->dirty = hit->dirty || dirty;
        Victim none;
        none.frame = static_cast<uint32_t>(hit - _lines.data());
        return none;
    }

    Line *victim = nullptr;
    for (uint32_t w = 0; w < _params.assoc; ++w) {
        Line &line = _lines[base + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }

    Victim evicted;
    evicted.frame = static_cast<uint32_t>(victim - _lines.data());
    if (victim->valid) {
        evicted.valid = true;
        evicted.dirty = victim->dirty;
        evicted.lineAddr =
            ((victim->tag << _setShift) | setIndex(addr))
            << _lineShift;
        if (evicted.dirty)
            ++_dirtyEvictions;
    }

    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tagOf(addr);
    victim->lru = ++_lruClock;
    return evicted;
}

} // namespace memory
} // namespace iraw
