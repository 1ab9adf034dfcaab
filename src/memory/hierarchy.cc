#include "memory/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace memory {

using variation::StructureId;

namespace {

/** The cycle an access at @p cycle may use @p guard's block; the
 *  stall is charged to @p res. */
Cycle
waitFor(IrawPortGuard &guard, Cycle cycle, MemAccessResult &res)
{
    const Cycle granted = guard.resolve(cycle);
    res.irawStallCycles += granted - cycle;
    return granted;
}

} // namespace

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
MemoryHierarchy::writeN(const IrawPortGuard &guard, StructureId s,
                        uint32_t frame) const
{
    if (!_maps)
        return guard.stabilizationCycles();
    // Entries rotate through the whole small FB, so variation mode
    // applies its worst-case line count.
    return s == StructureId::FillBuffer ? _maps->worstOf(s)
                                        : _maps->of(s)[frame];
}

// Inlined into its three callers, as the prologues it replaces were.
inline Cycle
MemoryHierarchy::translate(Tlb &tlb, IrawPortGuard &guard,
                           StructureId s, uint64_t addr, Cycle cycle,
                           MemAccessResult &res)
{
    // Guard first: a stabilizing refill blocks the lookup.
    Cycle when = waitFor(guard, cycle, res);
    if (!tlb.lookup(addr)) {
        res.tlbMiss = true;
        when += tlb.params().missPenalty;
        const uint32_t slot = tlb.fill(addr);
        guard.noteWrite(when, writeN(guard, s, slot));
    }
    return when;
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
            guard.noteWrite(fill.fillCycle,
                            writeN(guard,
                                   fill.toIl0 ? StructureId::Il0
                                              : StructureId::Dl0,
                                   victim.frame));
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
MemoryHierarchy::serviceMiss(Cache &l0, uint64_t lineAddr, Cycle cycle,
                             bool dirtyFill, MemAccessResult &res)
{
    // Victim still draining in the WCB/EB?  Forward from there and
    // reinstall; the WCB is an SRAM block, so its IRAW guard applies.
    if (_wcb.contains(lineAddr)) {
        // The WCB shares the FB guard.
        const Cycle when =
            waitFor(_fbGuard, cycle, res) + _cfg.wcbForwardLatency;
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
    when = waitFor(_fbGuard, when, res);

    // UL1 lookup; a stabilizing UL1 fill stalls this access.
    when = waitFor(_ul1Guard, when, res);

    Cycle fillReady = 0;
    if (_ul1.access(lineAddr, false)) {
        res.ul1Hit = true;
        fillReady = when + _cfg.ul1HitLatency;
    } else {
        res.ul1Hit = false;
        fillReady = when + _cfg.ul1HitLatency + _dramCycles;
        Victim v = _ul1.fill(lineAddr, false);
        _ul1Guard.noteWrite(fillReady,
                            writeN(_ul1Guard, StructureId::Ul1, v.frame));
        if (v.valid && v.dirty)
            _wcb.push(v.lineAddr, fillReady);
    }

    // The guards above only delay the allocation, so the FB is still
    // not full at `when`.
    _fb.allocate(lineAddr, when, fillReady);
    // The FB's heavy SRAM write is the line data arriving from the
    // next level; the allocation itself only sets a few state bits.
    _fbGuard.noteWrite(fillReady,
                       writeN(_fbGuard, StructureId::FillBuffer, 0));
    _pending.push_back(
        {lineAddr, fillReady, &l0 == &_il0, dirtyFill});
    return fillReady;
}

MemAccessResult
MemoryHierarchy::instFetch(uint64_t pc, Cycle cycle)
{
    retireFills(cycle);
    MemAccessResult res;
    Cycle when =
        translate(_itlb, _itlbGuard, StructureId::Itlb, pc, cycle, res);

    // IL0.
    when = waitFor(_il0Guard, when, res);
    if (_il0.access(pc, false)) {
        res.l0Hit = true;
        res.readyCycle = when;
        return res;
    }
    res.readyCycle =
        serviceMiss(_il0, _il0.lineAddr(pc), when, false, res);
    return res;
}

MemAccessResult
MemoryHierarchy::dataLoad(uint64_t addr, Cycle cycle)
{
    retireFills(cycle);
    MemAccessResult res;
    Cycle when =
        translate(_dtlb, _dtlbGuard, StructureId::Dtlb, addr, cycle, res);

    // DL0 fill-stall guard: a load arriving while a line fill
    // stabilizes must wait (Sec. 4.4: fills are handled like the
    // unfrequently-written blocks; store data is covered by the
    // STable in the core).
    when = waitFor(_dl0Guard, when, res);

    if (_dl0.access(addr, false)) {
        res.l0Hit = true;
        res.readyCycle = when;
        return res;
    }
    res.readyCycle =
        serviceMiss(_dl0, _dl0.lineAddr(addr), when, false, res);
    return res;
}

MemAccessResult
MemoryHierarchy::dataStore(uint64_t addr, Cycle cycle)
{
    retireFills(cycle);
    MemAccessResult res;
    Cycle when =
        translate(_dtlb, _dtlbGuard, StructureId::Dtlb, addr, cycle, res);

    // Stores must also respect the fill guard: the tag match reads
    // the whole set, and a stabilizing fill's tags could be
    // corrupted.  (Store *data* writes are safe and covered by the
    // STable; they do not arm this guard.)
    when = waitFor(_dl0Guard, when, res);

    if (_dl0.access(addr, true)) {
        res.l0Hit = true;
        res.readyCycle = when;
        return res;
    }

    // Write-allocate: fetch the line; the store data merges into the
    // fill buffer, so commit is not blocked by the fill itself.
    serviceMiss(_dl0, _dl0.lineAddr(addr), when, true, res);
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
