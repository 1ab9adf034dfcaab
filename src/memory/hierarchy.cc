#include "memory/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace memory {

using variation::StructureId;

MemoryHierarchy::MemoryHierarchy(const MemoryConfig &cfg)
    : _cfg(cfg), _il0(cfg.il0), _dl0(cfg.dl0), _ul1(cfg.ul1),
      _itlb(cfg.itlb), _dtlb(cfg.dtlb), _fb("fb", cfg.fbEntries),
      _wcb("wcb", cfg.wcbEntries, cfg.wcbDrainLatency)
{
    fatalIf(cfg.ul1HitLatency == 0,
            "MemoryHierarchy: UL1 hit latency must be >= 1");
    fatalIf(cfg.il0.lineBytes != cfg.ul1.lineBytes ||
                cfg.dl0.lineBytes != cfg.ul1.lineBytes,
            "MemoryHierarchy: all levels must share one line size");
}

void
MemoryHierarchy::setStabilizationCycles(uint32_t n)
{
    _maps.reset();
    _il0Guard.setStabilizationCycles(n);
    _dl0Guard.setStabilizationCycles(n);
    _ul1Guard.setStabilizationCycles(n);
    _itlbGuard.setStabilizationCycles(n);
    _dtlbGuard.setStabilizationCycles(n);
    _fbGuard.setStabilizationCycles(n);
}

void
MemoryHierarchy::setStabilizationMaps(
    std::shared_ptr<const variation::StabilizationMaps> maps)
{
    if (maps) {
        fatalIf(!maps->active,
                "MemoryHierarchy: inactive stabilization maps");
        for (StructureId s : {StructureId::Il0, StructureId::Dl0,
                              StructureId::Ul1, StructureId::Itlb,
                              StructureId::Dtlb}) {
            const Cache *cache = nullptr;
            uint32_t expect = 0;
            switch (s) {
              case StructureId::Il0:  cache = &_il0; break;
              case StructureId::Dl0:  cache = &_dl0; break;
              case StructureId::Ul1:  cache = &_ul1; break;
              case StructureId::Itlb:
                expect = _itlb.params().entries;
                break;
              default:
                expect = _dtlb.params().entries;
                break;
            }
            if (cache)
                expect = static_cast<uint32_t>(
                    cache->params().sizeBytes /
                    cache->params().lineBytes);
            fatalIf(maps->of(s).size() != expect,
                    "MemoryHierarchy: %s map has %zu lines, block "
                    "has %u", variation::structureName(s),
                    maps->of(s).size(), expect);
        }
    }
    _maps = std::move(maps);
}

uint32_t
MemoryHierarchy::mapN(StructureId s, uint32_t frame) const
{
    return _maps->of(s)[frame];
}

uint32_t
MemoryHierarchy::mapWorst(StructureId s) const
{
    return _maps->worstOf(s);
}

void
MemoryHierarchy::setDramLatencyCycles(uint32_t cycles)
{
    fatalIf(cycles == 0, "MemoryHierarchy: DRAM latency must be >= 1");
    _dramCycles = cycles;
}

void
MemoryHierarchy::retireFills(Cycle cycle)
{
    if (_pending.empty())
        return;
    // Stable ready-partition: install ready fills in arrival order
    // (install order drives LRU state and WCB contents) and compact
    // the not-yet-ready tail in place — one pass, no middle-of-the-
    // vector erases.
    size_t keep = 0;
    for (size_t i = 0; i < _pending.size(); ++i) {
        const PendingFill &fill = _pending[i];
        if (fill.fillCycle <= cycle) {
            Cache &l0 = fill.toIl0 ? _il0 : _dl0;
            IrawPortGuard &guard =
                fill.toIl0 ? _il0Guard : _dl0Guard;
            Victim victim = l0.fill(fill.lineAddr, fill.dirty);
            if (_maps)
                guard.noteWrite(fill.fillCycle,
                                mapN(fill.toIl0 ? StructureId::Il0
                                                : StructureId::Dl0,
                                     victim.frame));
            else
                guard.noteWrite(fill.fillCycle);
            if (victim.valid && victim.dirty)
                _wcb.push(victim.lineAddr, fill.fillCycle);
        } else {
            _pending[keep++] = fill;
        }
    }
    _pending.resize(keep);
    _fb.retire(cycle);
}

Cycle
MemoryHierarchy::serviceMiss(Cache &l0, IrawPortGuard &l0Guard,
                             uint64_t lineAddr, Cycle cycle,
                             bool dirtyFill, MemAccessResult &res)
{
    (void)l0Guard;

    // Victim still draining in the WCB/EB?  Forward from there and
    // reinstall; the WCB is an SRAM block, so its IRAW guard applies.
    if (_wcb.contains(lineAddr)) {
        Cycle when = cycle;
        Cycle granted = _fbGuard.resolve(when); // WCB shares FB guard
        res.irawStallCycles += granted - when;
        when = granted + _cfg.wcbForwardLatency;
        res.wcbForward = true;
        _pending.push_back({lineAddr, when, &l0 == &_il0, true});
        return when;
    }

    // Merge into an in-flight fill of the same line.
    if (_fb.contains(lineAddr)) {
        res.fbMerge = true;
        _fb.noteMerge();
        return std::max(cycle, _fb.readyCycle(lineAddr));
    }

    // Need a fresh FB entry; a full FB stalls the request.
    Cycle when = cycle;
    if (_fb.full(when)) {
        when = std::max(when, _fb.earliestReady());
        retireFills(when);
    }

    // The FB itself is written on allocation: IRAW guard.
    Cycle granted = _fbGuard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;

    // UL1 lookup; a stabilizing UL1 fill stalls this access.
    Cycle ul1When = _ul1Guard.resolve(when);
    res.irawStallCycles += ul1When - when;
    when = ul1When;

    Cycle fillReady = 0;
    if (_ul1.access(lineAddr, false)) {
        res.ul1Hit = true;
        fillReady = when + _cfg.ul1HitLatency;
    } else {
        res.ul1Hit = false;
        fillReady = when + _cfg.ul1HitLatency + _dramCycles;
        Victim v = _ul1.fill(lineAddr, false);
        if (_maps)
            _ul1Guard.noteWrite(fillReady,
                                mapN(StructureId::Ul1, v.frame));
        else
            _ul1Guard.noteWrite(fillReady);
        if (v.valid && v.dirty)
            _wcb.push(v.lineAddr, fillReady);
    }

    // The guards above only delay the allocation, so the FB is still
    // not full at `when`.
    _fb.allocate(lineAddr, when, fillReady);
    // The FB's heavy SRAM write is the line data arriving from the
    // next level; the allocation itself only sets a few state bits.
    // (Entries rotate through the whole small buffer, so variation
    // mode applies the FB's worst-case line count.)
    if (_maps)
        _fbGuard.noteWrite(fillReady,
                           mapWorst(StructureId::FillBuffer));
    else
        _fbGuard.noteWrite(fillReady);
    _pending.push_back(
        {lineAddr, fillReady, &l0 == &_il0, dirtyFill});
    return fillReady;
}

MemAccessResult
MemoryHierarchy::instFetch(uint64_t pc, Cycle cycle)
{
    retireFills(cycle);
    MemAccessResult res;
    Cycle when = cycle;

    // ITLB (guard first: a stabilizing refill blocks the lookup).
    Cycle granted = _itlbGuard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;
    if (!_itlb.lookup(pc)) {
        res.tlbMiss = true;
        when += _itlb.params().missPenalty;
        uint32_t slot = _itlb.fill(pc);
        if (_maps)
            _itlbGuard.noteWrite(when,
                                 mapN(StructureId::Itlb, slot));
        else
            _itlbGuard.noteWrite(when);
    }

    // IL0.
    granted = _il0Guard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;
    if (_il0.access(pc, false)) {
        res.l0Hit = true;
        res.readyCycle = when;
        return res;
    }
    res.readyCycle =
        serviceMiss(_il0, _il0Guard, _il0.lineAddr(pc), when, false,
                    res);
    return res;
}

MemAccessResult
MemoryHierarchy::dataLoad(uint64_t addr, Cycle cycle)
{
    retireFills(cycle);
    MemAccessResult res;
    Cycle when = cycle;

    Cycle granted = _dtlbGuard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;
    if (!_dtlb.lookup(addr)) {
        res.tlbMiss = true;
        when += _dtlb.params().missPenalty;
        uint32_t slot = _dtlb.fill(addr);
        if (_maps)
            _dtlbGuard.noteWrite(when,
                                 mapN(StructureId::Dtlb, slot));
        else
            _dtlbGuard.noteWrite(when);
    }

    // DL0 fill-stall guard: a load arriving while a line fill
    // stabilizes must wait (Sec. 4.4: fills are handled like the
    // unfrequently-written blocks; store data is covered by the
    // STable in the core).
    granted = _dl0Guard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;

    if (_dl0.access(addr, false)) {
        res.l0Hit = true;
        res.readyCycle = when;
        return res;
    }
    res.readyCycle =
        serviceMiss(_dl0, _dl0Guard, _dl0.lineAddr(addr), when, false,
                    res);
    return res;
}

MemAccessResult
MemoryHierarchy::dataStore(uint64_t addr, Cycle cycle)
{
    retireFills(cycle);
    MemAccessResult res;
    Cycle when = cycle;

    Cycle granted = _dtlbGuard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;
    if (!_dtlb.lookup(addr)) {
        res.tlbMiss = true;
        when += _dtlb.params().missPenalty;
        uint32_t slot = _dtlb.fill(addr);
        if (_maps)
            _dtlbGuard.noteWrite(when,
                                 mapN(StructureId::Dtlb, slot));
        else
            _dtlbGuard.noteWrite(when);
    }

    // Stores must also respect the fill guard: the tag match reads
    // the whole set, and a stabilizing fill's tags could be
    // corrupted.  (Store *data* writes are safe and covered by the
    // STable; they do not arm this guard.)
    granted = _dl0Guard.resolve(when);
    res.irawStallCycles += granted - when;
    when = granted;

    if (_dl0.access(addr, true)) {
        res.l0Hit = true;
        res.readyCycle = when;
        return res;
    }

    // Write-allocate: fetch the line; the store data merges into the
    // fill buffer, so commit is not blocked by the fill itself.
    Cycle fillReady =
        serviceMiss(_dl0, _dl0Guard, _dl0.lineAddr(addr), when, true,
                    res);
    (void)fillReady;
    res.readyCycle = when;
    return res;
}

uint64_t
MemoryHierarchy::totalIrawStallCycles() const
{
    return _il0Guard.stallCycles() + _dl0Guard.stallCycles() +
           _ul1Guard.stallCycles() + _itlbGuard.stallCycles() +
           _dtlbGuard.stallCycles() + _fbGuard.stallCycles();
}

uint64_t
MemoryHierarchy::totalSramBits() const
{
    return _cfg.il0.totalBits() + _cfg.dl0.totalBits() +
           _cfg.ul1.totalBits() + _cfg.itlb.totalBits() +
           _cfg.dtlb.totalBits() + _fb.totalBits() + _wcb.totalBits();
}

} // namespace memory
} // namespace iraw
