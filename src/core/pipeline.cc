#include "core/pipeline.hh"

#include <algorithm>
#include <limits>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "trace/trace_store.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace core {

using isa::MicroOp;
using isa::OpClass;
using memory::Cycle;

PipelineStats
PipelineStats::minus(const PipelineStats &earlier) const
{
    PipelineStats d = *this;
    auto sub = [](uint64_t &a, uint64_t b) {
        panicIf(a < b, "PipelineStats::minus: counter went backward");
        a -= b;
    };
    sub(d.cycles, earlier.cycles);
    sub(d.committedInsts, earlier.committedInsts);
    sub(d.drainNops, earlier.drainNops);
    sub(d.rawStallCycles, earlier.rawStallCycles);
    sub(d.rfIrawStallCycles, earlier.rfIrawStallCycles);
    sub(d.wawStallCycles, earlier.wawStallCycles);
    sub(d.structuralStallCycles, earlier.structuralStallCycles);
    sub(d.iqGateStallCycles, earlier.iqGateStallCycles);
    sub(d.dl0ReplayStallCycles, earlier.dl0ReplayStallCycles);
    sub(d.iqEmptyCycles, earlier.iqEmptyCycles);
    sub(d.rfIrawDelayedInsts, earlier.rfIrawDelayedInsts);
    sub(d.fetchLineAccesses, earlier.fetchLineAccesses);
    sub(d.icacheStallCycles, earlier.icacheStallCycles);
    sub(d.mispredicts, earlier.mispredicts);
    sub(d.branches, earlier.branches);
    sub(d.rsbMispredicts, earlier.rsbMispredicts);
    sub(d.rsbDeterminismStalls, earlier.rsbDeterminismStalls);
    sub(d.bpConflictReads, earlier.bpConflictReads);
    sub(d.rsbConflictPops, earlier.rsbConflictPops);
    sub(d.injectedCorruptions, earlier.injectedCorruptions);
    sub(d.stableFullMatches, earlier.stableFullMatches);
    sub(d.stableSetMatches, earlier.stableSetMatches);
    sub(d.stableReplayedStores, earlier.stableReplayedStores);
    sub(d.loads, earlier.loads);
    sub(d.stores, earlier.stores);
    sub(d.loadMisses, earlier.loadMisses);
    return d;
}

Pipeline::Pipeline(const CoreConfig &cfg,
                   memory::MemoryHierarchy &hierarchy,
                   trace::TraceSource &source)
    : _cfg(cfg), _mem(hierarchy), _trace(source),
      _replay(source.replay()),
      _scoreboard(cfg.scoreboardBits, cfg.bypassLevels),
      _iq(cfg.iqEntries), _units(cfg),
      _gate(cfg.iqEntries, cfg.issueWidth, cfg.fetchWidth),
      _stable(cfg.commitStoresPerCycle * cfg.maxStabilizationCycles,
              hierarchy.config().dl0.lineBytes,
              hierarchy.config().dl0.numSets()),
      _bp(cfg.predictorKind, cfg.predictorEntries,
          cfg.predictorHistoryBits),
      _rsb(cfg.rsbDepth), _rng(cfg.corruptionSeed)
{
    _cfg.validate();
    const uint64_t il0Line = hierarchy.config().il0.lineBytes;
    fatalIf(!isPowerOf2(il0Line),
            "Pipeline: IL0 line size %llu is not a power of two",
            static_cast<unsigned long long>(il0Line));
    _il0LineShift = floorLog2(il0Line);
    _issueThrottle = _cfg.issueWidth;
}

void
Pipeline::setIssueThrottle(uint32_t width)
{
    _issueThrottle = width == 0
                         ? _cfg.issueWidth
                         : std::min(width, _cfg.issueWidth);
}

void
Pipeline::applySettings(const mechanism::IrawSettings &settings)
{
    panicIf(writesInFlight(),
            "Pipeline: applySettings with a register write in flight");
    _n = settings.enabled ? settings.stabilizationCycles : 0;
    fatalIf(_n > _cfg.maxStabilizationCycles,
            "Pipeline: N=%u exceeds the hardware's sized maximum %u",
            _n, _cfg.maxStabilizationCycles);
    _scoreboard.setStabilizationCycles(_n);
    _gate.setStabilizationCycles(_n);
    _stable.setActiveEntries(_n * _cfg.commitStoresPerCycle);
    _mem.setStabilizationCycles(_n);
    _bpCorruption.setStabilizationCycles(_n);
}

void
Pipeline::applyStabilizationMaps(
    std::shared_ptr<const variation::StabilizationMaps> maps)
{
    panicIf(writesInFlight(),
            "Pipeline: applyStabilizationMaps with a register write "
            "in flight");
    fatalIf(!maps || !maps->active,
            "Pipeline: applyStabilizationMaps needs active maps "
            "(IRAW operation)");
    _n = maps->worst;
    fatalIf(_n > _cfg.maxStabilizationCycles,
            "Pipeline: chip's worst line needs N=%u, hardware is "
            "sized for %u — this chip does not operate here",
            _n, _cfg.maxStabilizationCycles);
    _scoreboard.setStabilizationMap(
        maps->of(variation::StructureId::RegisterFile), maps->worst);
    _gate.setStabilizationCycles(_n);
    _stable.setActiveEntries(_n * _cfg.commitStoresPerCycle);
    _bpCorruption.setStabilizationCycles(_n);
    _mem.setStabilizationMaps(std::move(maps));
}

void
Pipeline::reset()
{
    _scoreboard.reset();
    _iq.clear();
    _units.reset();
    _stable.flush();
    _stable.resetStats();
    // Predictor tables retrain from scratch (fresh silicon state);
    // reset() reinitializes in place instead of re-allocating.
    _bp.reset();
    _rsb.flush();
    _rng.reseed(_cfg.corruptionSeed);
    _bpCorruption.reset();
    _stats = PipelineStats{};
    _cycle = 0;
    _writeDoneAt.fill(0);
    _lastWriteDone = 0;
    _nextOp.reset();
    _peek = nullptr;
    _traceDone = false;
    _fetchHalted = false;
    _fetchBlockedUntil = 0;
    _currentFetchLine = ~0ULL;
    _nopsInjected = 0;
    _nopSeq = 0;
    _dl0ReplayBlockedUntil = 0;
}

bool
Pipeline::sourcesReady(const MicroOp &op, BlockReason &reason) const
{
    auto check = [this, &reason](isa::RegId reg) {
        if (_scoreboard.isReady(reg))
            return true;
        // Attribution: ready under conventional operation means the
        // IRAW bubble alone blocks this consumer.
        reason = (_n > 0 && _scoreboard.isReadyShadow(reg))
                     ? BlockReason::RfIraw
                     : BlockReason::Raw;
        return false;
    };
    if (op.hasSrc1() && !check(op.src1))
        return false;
    if (op.hasSrc2() && !check(op.src2))
        return false;
    return true;
}

void
Pipeline::setDestination(isa::RegId dst, uint32_t latency)
{
    // Every latency is at least 1, so a write never completes in
    // the cycle it issues.
    const Cycle done = _cycle + latency;
    if (latency <= _scoreboard.maxEncodableLatency())
        _scoreboard.setProducer(dst, latency);
    else
        _scoreboard.setLongLatencyProducer(dst, done);
    _writeDoneAt[dst] = done;
    _lastWriteDone = std::max(_lastWriteDone, done);
}

void
Pipeline::issueMemOp(IqEntry &entry)
{
    const MicroOp &op = entry.op;
    if (op.isLoad()) {
        ++_stats.loads;

        // Parallel STable probe (Sec. 4.4, Figure 10).
        auto probe =
            _stable.probe(op.memAddr, op.memSize, _cycle, _n);
        if (probe.match != mechanism::StableMatch::None) {
            if (probe.match == mechanism::StableMatch::Full)
                ++_stats.stableFullMatches;
            else
                ++_stats.stableSetMatches;
            _stats.stableReplayedStores += probe.replayStores;
            // Stall further cache accesses while the matching stores
            // replay (one per cycle).
            _dl0ReplayBlockedUntil =
                std::max(_dl0ReplayBlockedUntil,
                         _cycle + probe.replayStores);
        }

        auto res = _mem.dataLoad(op.memAddr, _cycle);
        uint32_t latency = 0;
        if (res.l0Hit) {
            latency = _cfg.latencies.latency(OpClass::Load) +
                      static_cast<uint32_t>(res.readyCycle - _cycle);
        } else {
            ++_stats.loadMisses;
            latency = static_cast<uint32_t>(res.readyCycle - _cycle) +
                      _cfg.loadMissForwardDelay;
        }
        setDestination(op.dst, std::max(1u, latency));
    } else {
        ++_stats.stores;
        _mem.dataStore(op.memAddr, _cycle);
        // The store writes DL0 at commit; the STable tracks it for
        // the stabilization window.
        _stable.noteStore(op.memAddr, op.memSize, _cycle);
    }
}

void
Pipeline::executeControlOp(const IqEntry &entry)
{
    const MicroOp &op = entry.op;
    Cycle execCycle = _cycle + 1;
    (void)op;

    if (entry.mispredicted) {
        ++_stats.mispredicts;
        // Squash the wrong-path allocations behind this branch (tail
        // pointer reset in the real machine).
        while (!_iq.empty() &&
               _iq.at(_iq.occupancy() - 1).isWrongPath)
            _iq.popBack();
        // Redirect: the frontend refills after resolution.
        _fetchHalted = false;
        _fetchBlockedUntil =
            std::max(_fetchBlockedUntil,
                     execCycle + _cfg.branchMispredictPenalty);
        _currentFetchLine = ~0ULL;
    }
}

Pipeline::BlockReason
Pipeline::tryIssue(IqEntry &entry, bool &issued)
{
    issued = false;
    const MicroOp &op = entry.op;

    // Entries cannot issue in their allocation cycle.
    if (entry.allocCycle >= _cycle)
        return BlockReason::Structural;

    BlockReason reason = BlockReason::None;
    if (!sourcesReady(op, reason))
        return reason;

    // WAW: a previous in-flight writer of the destination.
    if (op.hasDst() && _writeDoneAt[op.dst] > _cycle)
        return BlockReason::Waw;

    if (!_units.canIssue(op.opClass, _cycle))
        return BlockReason::Structural;

    // STable replay recovery blocks the memory port (Sec. 4.4).
    if (isMemOp(op.opClass) && _cycle <= _dl0ReplayBlockedUntil)
        return BlockReason::Dl0Replay;

    // Issue.
    _units.issue(op.opClass, _cycle);
    switch (op.opClass) {
      case OpClass::Load:
      case OpClass::Store:
        issueMemOp(entry);
        break;
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
        executeControlOp(entry);
        break;
      case OpClass::Nop:
        break;
      default:
        setDestination(op.dst,
                       _cfg.latencies.latency(op.opClass));
        break;
    }

    if (entry.isDrainNop)
        ++_stats.drainNops;
    else
        ++_stats.committedInsts;
    issued = true;
    return BlockReason::None;
}

void
Pipeline::issueStage()
{
    if (_iq.empty()) {
        ++_stats.iqEmptyCycles;
        return;
    }

    // Eq. (1): the IQ occupancy gate.
    if (!_gate.issueAllowed(_iq.occupancy())) {
        ++_stats.iqGateStallCycles;
        return;
    }

    for (uint32_t slot = 0; slot < _issueThrottle; ++slot) {
        if (_iq.empty())
            break;
        if (_instBudget != 0 &&
            _stats.committedInsts >= _instBudget)
            break;
        // Re-check the gate: issuing drains occupancy below the
        // threshold within the cycle is allowed (the ICI oldest were
        // already known stable), so only the entry count matters.
        IqEntry &entry = _iq.at(0);
        bool issued = false;
        BlockReason reason = tryIssue(entry, issued);
        if (!issued) {
            // Attribute the blocking reason of the oldest entry only
            // on the first slot (one reason per stall cycle).
            if (slot == 0) {
                switch (reason) {
                  case BlockReason::Raw:
                    ++_stats.rawStallCycles;
                    break;
                  case BlockReason::RfIraw:
                    ++_stats.rfIrawStallCycles;
                    // Count each delayed instruction at most once
                    // (the paper's 13.2% statistic).
                    if (!entry.isDrainNop && !entry.irawDelayCounted) {
                        ++_stats.rfIrawDelayedInsts;
                        entry.irawDelayCounted = true;
                    }
                    break;
                  case BlockReason::Waw:
                    ++_stats.wawStallCycles;
                    break;
                  case BlockReason::Dl0Replay:
                    ++_stats.dl0ReplayStallCycles;
                    break;
                  case BlockReason::Structural:
                  default:
                    ++_stats.structuralStallCycles;
                    break;
                }
            }
            break; // strict in-order issue
        }
        _iq.popFront();
    }
}

void
Pipeline::fetchStage()
{
    if (_fetchHalted) {
        // A mispredicted branch is in flight: the real frontend keeps
        // fetching down the wrong path, so the IQ keeps filling with
        // entries that will be squashed at resolution.  Modelling
        // this matters for the Eq. (1) occupancy gate.
        for (uint32_t slot = 0;
             slot < _cfg.fetchWidth && !_iq.full(); ++slot) {
            IqEntry &wp =
                _iq.allocateBack(/*isDrainNop=*/false,
                                 /*isWrongPath=*/true);
            wp.op = isa::makeNop(0, 0);
            wp.allocCycle = _cycle;
        }
        return;
    }
    if (_cycle < _fetchBlockedUntil)
        return; // icache refill or redirect bubble

    for (uint32_t slot = 0; slot < _cfg.fetchWidth; ++slot) {
        if (_iq.full())
            break;

        // Pull the next micro-op.  Store-backed replay sources hand
        // out a stable pointer into the shared decoded buffer — no
        // virtual call, no record unpack, no copy; streaming sources
        // take the virtual pull interface.
        const MicroOp *op = nullptr;
        if (!_traceDone && !_fetchFrozen) {
            if (_replay) {
                if (!_peek) {
                    _peek = _replay->take();
                    if (!_peek)
                        _traceDone = true;
                }
                op = _peek;
            } else {
                if (!_nextOp) {
                    _nextOp = _trace.next();
                    if (!_nextOp)
                        _traceDone = true;
                }
                if (_nextOp)
                    op = &*_nextOp;
            }
        }

        // A frozen frontend (drainQuiesce) behaves like the end of
        // the trace — drain NOOPs keep the Eq. (1) gate satisfied —
        // but leaves the trace cursor and any prefetched op alone.
        if (_traceDone || _fetchFrozen) {
            // Drain: with the Eq. (1) gate active, inject NOOPs so
            // the last *real* instructions can issue (Sec. 4.2).
            // Once only NOOPs remain the queue may simply sit below
            // the threshold; injecting more would recurse forever.
            bool hasReal = _iq.realEntries() > 0;
            if (_n > 0 && hasReal &&
                !_gate.issueAllowed(_iq.occupancy())) {
                IqEntry &nop =
                    _iq.allocateBack(/*isDrainNop=*/true,
                                     /*isWrongPath=*/false);
                nop.op = isa::makeNop(++_nopSeq, 0);
                nop.allocCycle = _cycle;
                ++_nopsInjected;
                continue;
            }
            break;
        }

        // Instruction memory: one IL0 access per fetched line.
        uint64_t line = op->pc >> _il0LineShift;
        if (line != _currentFetchLine) {
            auto res = _mem.instFetch(op->pc, _cycle);
            ++_stats.fetchLineAccesses;
            if (res.readyCycle > _cycle) {
                _fetchBlockedUntil = res.readyCycle;
                _stats.icacheStallCycles +=
                    res.readyCycle - _cycle;
                return;
            }
            _currentFetchLine = line;
        }

        IqEntry &entry = _iq.allocateBack();
        entry.op = *op;
        entry.allocCycle = _cycle;

        // Branch prediction.
        if (op->isBranch()) {
            ++_stats.branches;
            if (op->opClass == OpClass::Branch) {
                // Train immediately with the fetch-time state (the
                // real machine trains at execute with a checkpointed
                // history); the update's array write lands roughly a
                // frontend-depth later, which is what the corruption
                // window tracks.  One fused, devirtualized dispatch
                // yields the (pre-update-history) entry index, the
                // prediction, and the direction-bit flip.
                predictor::PredictOutcome out =
                    _bp.predictAndTrain(op->pc, op->taken);
                bool conflict =
                    _bpCorruption.noteRead(out.index, _cycle);
                if (conflict)
                    ++_stats.bpConflictReads;
                bool pred = out.taken;
                _bpCorruption.noteUpdate(
                    out.index, _cycle + kBpUpdateDelay, out.flipped);
                if (conflict && _cfg.injectPredictionCorruption &&
                    _rng.chance(0.5)) {
                    pred = !pred;
                    ++_stats.injectedCorruptions;
                }
                entry.predictedTaken = pred;
                entry.mispredicted = pred != op->taken;
            } else if (op->opClass == OpClass::Call) {
                _rsb.push(op->pc + 4, _cycle);
                entry.predictedTaken = true;
                entry.mispredicted = false;
            } else { // Return
                auto pop = _rsb.pop(_cycle, _n);
                if (pop.inIrawWindow) {
                    ++_stats.rsbConflictPops;
                    if (_cfg.determinismMode) {
                        // Sec. 4.5: stall the read until the entry
                        // stabilizes instead of risking corruption.
                        ++_stats.rsbDeterminismStalls;
                        _fetchBlockedUntil = _cycle + _n;
                    } else if (_cfg.injectPredictionCorruption &&
                               _rng.chance(0.5)) {
                        pop.target = ~pop.target; // corrupt value
                        ++_stats.injectedCorruptions;
                    }
                }
                entry.predictedTaken = true;
                entry.mispredicted =
                    !pop.valid || pop.target != op->target;
                if (entry.mispredicted)
                    ++_stats.rsbMispredicts;
            }
        }

        const bool takenBranch = op->isBranch() && op->taken;
        if (_replay)
            _peek = nullptr;
        else
            _nextOp.reset();

        if (entry.mispredicted) {
            _fetchHalted = true;
            return;
        }
        if (takenBranch) {
            // Correctly predicted taken control flow: fetch redirect
            // within the same cycle (BTB hit), next line check will
            // run against the target.
            _currentFetchLine = ~0ULL;
        }
    }
}

void
Pipeline::tick()
{
    ++_cycle;
    _scoreboard.tick();
    _units.newCycle();
    issueStage();
    fetchStage();
}

const PipelineStats &
Pipeline::run(uint64_t maxInsts)
{
    return runUntil(maxInsts,
                    std::numeric_limits<memory::Cycle>::max());
}

const PipelineStats &
Pipeline::runUntil(uint64_t maxInsts, memory::Cycle stopCycle)
{
    fatalIf(maxInsts == 0, "Pipeline: maxInsts must be >= 1");
    _instBudget = maxInsts;
    const uint64_t cycleCap = maxInsts * 1000 + 1000000;
    while (_stats.committedInsts < maxInsts && _cycle < stopCycle) {
        if (_traceDone && !fetchPending()) {
            // Done when nothing real is left: trailing drain NOOPs
            // below the Eq. (1) threshold never need to issue (the
            // real machine redirects at the drain event).
            if (_iq.realEntries() == 0)
                break;
        }
        tick();
        fatalIf(_cycle > cycleCap,
                "Pipeline: exceeded cycle cap (%llu cycles, %llu "
                "insts) -- livelock?",
                static_cast<unsigned long long>(_cycle),
                static_cast<unsigned long long>(
                    _stats.committedInsts));
    }
    _stats.cycles = _cycle;
    return _stats;
}

bool
Pipeline::quiescedForSwitch() const
{
    return _iq.realEntries() == 0 && !writesInFlight();
}

uint64_t
Pipeline::drainQuiesce(uint64_t maxInsts)
{
    fatalIf(maxInsts == 0, "Pipeline: maxInsts must be >= 1");
    _instBudget = maxInsts;
    const uint64_t cycleCap = maxInsts * 1000 + 1000000;
    const memory::Cycle start = _cycle;
    _fetchFrozen = true;
    while (!quiescedForSwitch() &&
           _stats.committedInsts < maxInsts) {
        tick();
        fatalIf(_cycle > cycleCap,
                "Pipeline: drain exceeded the cycle cap (%llu "
                "cycles) -- livelock?",
                static_cast<unsigned long long>(_cycle));
    }
    _fetchFrozen = false;
    // Leftover entries are wrong-path fillers and drain NOOPs; the
    // transition squashes them (the frontend refetches after the
    // switch).  Kept as-is if the budget filled mid-drain — the run
    // is over and no switch follows.
    if (quiescedForSwitch())
        _iq.clear();
    _stats.cycles = _cycle;
    return _cycle - start;
}

void
Pipeline::advanceIdleCycles(uint64_t cycles)
{
    panicIf(!quiescedForSwitch(),
            "Pipeline: advanceIdleCycles needs a drained pipeline");
    _cycle += cycles;
    // Registers keep stabilizing while the core idles: shift the
    // scoreboard through the settle window.  A window at least as
    // wide as the shift registers reaches the all-ready state (every
    // producer pattern ends in trailing ones); a short window shifts
    // cycle-for-cycle — a free switch may not skip stabilization the
    // Eq. (1) rules would have stalled on.  The lazy scoreboard
    // handles both with one clock jump.  Every absolute-cycle window
    // (guards, STable, exec units, corruption trackers) simply
    // expires across the jump.
    _scoreboard.advance(cycles);
    _currentFetchLine = ~0ULL;
    _stats.cycles = _cycle;
}

} // namespace core
} // namespace iraw
