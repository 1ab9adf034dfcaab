#include "sim/sim_engine.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/event_tracer.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace sim {

const SimConfig &
SimEngine::validated(const SimConfig &cfg)
{
    cfg.core.validate();
    fatalIf(cfg.instructions == 0,
            "Simulator: zero instruction budget");
    fatalIf(!circuit::inModelRange(cfg.vcc),
            "Simulator: Vcc %.0f mV outside model range", cfg.vcc);
    return cfg;
}

SimEngine::SimEngine(const Simulator &sim, const SimConfig &cfg)
    : _sim(sim),
      _cfg(validated(cfg)),
      _controller(sim.cycleTimeModel(), _cfg.mode),
      _vctl(_cfg.adapt
                ? std::make_unique<adapt::VccController>(
                      sim.cycleTimeModel(), *_cfg.adapt, _cfg.mode,
                      _cfg.vcc, _cfg.core, _cfg.chip.get())
                : nullptr),
      _opVcc(_vctl ? _vctl->initialVcc() : _cfg.vcc),
      _src(sim.makeTraceSource(_cfg)),
      _mem(_cfg.mem),
      _pipe(_cfg.core, _mem, *_src)
{
    _res.config = _cfg;

    if (_cfg.chip) {
        const variation::ChipSample &chip = *_cfg.chip;
        fatalIf(chip.geometry() != variation::ChipGeometry::from(
                                       _cfg.core, _cfg.mem),
                "Simulator: chip sample geometry does not match the "
                "machine configuration");
        _res.variation.enabled = true;
        _res.variation.chipIndex = chip.chipIndex();
        _res.variation.chipSeed = chip.chipSeed();
        _res.variation.sigma = chip.params().sigma;
        _res.variation.systematicSigma =
            chip.params().systematicSigma;
        _res.variation.maxMultiplier = chip.maxMultiplier(_cfg.vcc);
    }

    if (_cfg.issueThrottle != 0)
        _pipe.setIssueThrottle(_cfg.issueThrottle);

    applyOperatingPoint(_opVcc);
    if (_cfg.chip)
        _res.variation.nominalN = _res.settings.stabilizationCycles;

    _totalBudget = _cfg.warmupInstructions + _cfg.instructions;
    _nextEpoch = _vctl ? _cfg.adapt->epochCycles : 0;

    _tracer = _cfg.tracer.get();
    if (_tracer)
        _epochWallUs = _tracer->nowUs();

    if (_vctl) {
        _res.adapt.enabled = true;
        _res.adapt.policy = _cfg.adapt->policy;
        _res.adapt.epochCycles = _cfg.adapt->epochCycles;
        _res.adapt.initialVcc = _opVcc;
        _res.adapt.minVcc = _opVcc;
        _res.adapt.floorVcc = _vctl->floorVcc();
    }
}

void
SimEngine::applyOperatingPoint(circuit::MilliVolts vcc)
{
    // One operating point application, shared by the initial setup
    // and every mid-run switch: DRAM latency re-derives from the new
    // cycle time before the pipeline reconfigures, and the chip's
    // per-line stabilization maps re-derive whenever IRAW is active.
    _res.settings = _controller.reconfigure(vcc);
    _res.cycleTimeAu = _res.settings.cycleTime;
    _res.dramCycles = Simulator::dramCyclesAt(
        _res.cycleTimeAu, _cfg.mem.dramLatencyNs);
    _mem.setDramLatencyCycles(
        static_cast<uint32_t>(_res.dramCycles));
    _pipe.applySettings(_res.settings);
    if (_cfg.chip && _res.settings.enabled) {
        auto maps =
            std::make_shared<const variation::StabilizationMaps>(
                _cfg.chip->stabilizationMaps(_sim.cycleTimeModel(),
                                             _res.settings));
        _res.variation.worstN = maps->worst;
        _pipe.applyStabilizationMaps(std::move(maps));
    }
}

uint64_t
SimEngine::otherGuardStallsNow() const
{
    // Non-DL0 guard stalls (IL0/UL1/TLBs/FB); DL0 reports its own.
    return _mem.il0Guard().stallCycles() +
           _mem.ul1Guard().stallCycles() +
           _mem.itlbGuard().stallCycles() +
           _mem.dtlbGuard().stallCycles() +
           _mem.fbGuard().stallCycles();
}

uint64_t
SimEngine::irawStallsNow() const
{
    return _pipe.stats().coreIrawStallCycles() +
           _mem.dl0Guard().stallCycles() + otherGuardStallsNow();
}

void
SimEngine::closeSegment()
{
    adapt::AdaptSegment seg;
    seg.vcc = _opVcc;
    seg.cycleTimeAu = _res.cycleTimeAu;
    seg.irawOn = _res.settings.enabled;
    seg.cycles = _pipe.currentCycle() - _segStartCycle;
    seg.settleCycles = _segSettle;
    seg.instructions =
        _pipe.stats().committedInsts - _segStartInsts;
    _res.adapt.segments.push_back(seg);
    _segStartCycle = _pipe.currentCycle();
    _segStartInsts = _pipe.stats().committedInsts;
    _segSettle = 0;
}

void
SimEngine::runPhase(uint64_t target)
{
    // Fixed-Vcc runs take the pipeline's own loop; adaptive runs
    // chunk it at epoch boundaries -- the tick sequence between
    // boundaries is identical, so a controller that never switches
    // (Static) is bitwise identical to the fixed-Vcc path.
    if (!_vctl) {
        _pipe.run(target);
        return;
    }
    const adapt::AdaptConfig &acfg = *_cfg.adapt;
    for (;;) {
        _pipe.runUntil(target, _nextEpoch);
        if (_pipe.stats().committedInsts >= target)
            return;
        if (_pipe.currentCycle() < _nextEpoch)
            return; // trace drained before the budget
        adapt::EpochTelemetry telemetry;
        telemetry.cycles = _pipe.currentCycle() - _epochStartCycle;
        telemetry.instructions =
            _pipe.stats().committedInsts - _epochStartInsts;
        telemetry.irawStallCycles =
            irawStallsNow() - _epochStartIraw;
        if (_tracer) {
            // Contiguous host-time slices, one per epoch window.
            uint64_t nowWallUs = _tracer->nowUs();
            _tracer->complete(
                "adapt.epoch", "adapt", _epochWallUs,
                nowWallUs - _epochWallUs,
                {obs::EventTracer::arg("cycles", telemetry.cycles),
                 obs::EventTracer::arg("instructions",
                                       telemetry.instructions),
                 obs::EventTracer::arg(
                     "vcc_mV", static_cast<double>(_opVcc))});
            _epochWallUs = nowWallUs;
        }
        adapt::Decision decision = _vctl->evaluate(telemetry);
        if (decision.switchVcc &&
            _pipe.stats().committedInsts < _totalBudget) {
            const uint64_t drainStartUs =
                _tracer ? _tracer->nowUs() : 0;
            const uint64_t drainedBefore = _res.adapt.drainCycles;
            _res.adapt.drainCycles +=
                _pipe.drainQuiesce(_totalBudget);
            if (_tracer)
                _tracer->complete(
                    "adapt.drain", "adapt", drainStartUs,
                    _tracer->nowUs() - drainStartUs,
                    {obs::EventTracer::arg(
                        "cycles", _res.adapt.drainCycles -
                                      drainedBefore)});
            if (_pipe.quiescedForSwitch() &&
                _pipe.stats().committedInsts < _totalBudget) {
                closeSegment();
                const uint64_t settleStartUs =
                    _tracer ? _tracer->nowUs() : 0;
                _pipe.advanceIdleCycles(acfg.switchCycles);
                if (_tracer) {
                    _tracer->complete(
                        "adapt.settle", "adapt", settleStartUs,
                        _tracer->nowUs() - settleStartUs,
                        {obs::EventTracer::arg("cycles",
                                               acfg.switchCycles)});
                    _tracer->instant(
                        "adapt.switch", "adapt",
                        {obs::EventTracer::arg(
                             "from_mV",
                             static_cast<double>(_opVcc)),
                         obs::EventTracer::arg(
                             "to_mV", static_cast<double>(
                                          decision.target))});
                }
                _segSettle = acfg.switchCycles;
                // Explore decisions carry the whole operating
                // configuration: the IRAW mode re-derives the
                // cycle time / N trade and the issue throttle
                // narrows the slot loop (0 falls back to the
                // run-level configuration).
                _controller.setMode(decision.mode);
                _pipe.setIssueThrottle(decision.issueThrottle != 0
                                           ? decision.issueThrottle
                                           : _cfg.issueThrottle);
                applyOperatingPoint(decision.target);
                _opVcc = decision.target;
                ++_res.adapt.switches;
                _res.adapt.settleCycles += acfg.switchCycles;
                _res.adapt.minVcc =
                    std::min(_res.adapt.minVcc, _opVcc);
            }
        }
        _epochStartCycle = _pipe.currentCycle();
        _epochStartInsts = _pipe.stats().committedInsts;
        _epochStartIraw = irawStallsNow();
        _nextEpoch = _pipe.currentCycle() + acfg.epochCycles;
    }
}

void
SimEngine::endWarmup()
{
    _warm = _pipe.stats();
    _warmEndCycle = _pipe.currentCycle();
    _snap.il0Acc = _mem.il0().accesses();
    _snap.il0Hit = _mem.il0().hits();
    _snap.dl0Acc = _mem.dl0().accesses();
    _snap.dl0Hit = _mem.dl0().hits();
    _snap.ul1Acc = _mem.ul1().accesses();
    _snap.ul1Hit = _mem.ul1().hits();
    _snap.dl0Guard = _mem.dl0Guard().stallCycles();
    _snap.otherGuard = otherGuardStallsNow();
    _snap.bpPred = _pipe.branchPredictor().predictions();
    _snap.bpMiss = _pipe.branchPredictor().mispredictions();
}

SimResult
SimEngine::run()
{
    panicIf(_ran, "SimEngine: run() called twice");
    _ran = true;
    // lint-determinism: allow(obs-only-wallclock) perf.sim_wall_seconds host metric; read only into SimResult.host, never into simulated state (invariant 6)
    auto wallStart = std::chrono::steady_clock::now();
    if (_cfg.warmupInstructions > 0) {
        runPhase(_cfg.warmupInstructions);
        endWarmup();
    }
    runPhase(_totalBudget);
    // lint-determinism: allow(obs-only-wallclock) closes the host wall-time bracket opened above (invariant 6)
    auto wallEnd = std::chrono::steady_clock::now();
    _res.host.wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    return finalize();
}

SimResult
SimEngine::finalize()
{
    SimResult &res = _res;
    core::PipelineStats total = _pipe.stats();

    res.host.instructions = total.committedInsts;

    res.pipeline = total.minus(_warm);
    res.ipc = res.pipeline.ipc();
    if (_vctl) {
        const adapt::AdaptConfig &acfg = *_cfg.adapt;
        closeSegment();
        res.adapt.finalVcc = _opVcc;
        res.adapt.epochs = _vctl->epochs();
        res.adapt.totalCycles = total.cycles;
        res.adapt.totalInstructions = total.committedInsts;
        res.adapt.cap = _vctl->capStats();

        // Exact accounting: exec time and energy fold over the
        // constant-voltage segments in order; a switch charges its
        // settle cycles at the destination cycle time and its
        // energy once per transition.
        circuit::EnergyModel energyModel(acfg.refTimePerInst);
        double vccWeighted = 0.0;
        for (adapt::AdaptSegment &seg : res.adapt.segments) {
            res.adapt.execTimeAu += seg.execTimeAu();
            vccWeighted += seg.execTimeAu() * seg.vcc;
            seg.energy = energyModel.taskEnergy(
                seg.vcc, seg.instructions, seg.execTimeAu(),
                seg.irawOn ? acfg.irawDynOverhead : 0.0);
            res.adapt.energy.dynamic += seg.energy.dynamic;
            res.adapt.energy.leakage += seg.energy.leakage;
        }
        res.adapt.switchEnergyAu =
            res.adapt.switches * acfg.switchEnergyAu;
        res.adapt.energy.dynamic += res.adapt.switchEnergyAu;
        res.adapt.timeWeightedVcc =
            res.adapt.execTimeAu > 0.0
                ? vccWeighted / res.adapt.execTimeAu
                : _opVcc;
        // Measured-window execution time: fold the post-warmup
        // share of every segment from integer cycle counts.  With
        // zero switches this is exactly pipeline.cycles *
        // cycleTimeAu -- the fixed-Vcc expression -- so Static stays
        // bitwise identical.
        res.execTimeAu = 0.0;
        memory::Cycle cumEnd = 0;
        for (const adapt::AdaptSegment &seg : res.adapt.segments) {
            memory::Cycle cumStart = cumEnd;
            cumEnd += seg.cycles;
            if (cumEnd <= _warmEndCycle)
                continue; // entirely inside the warmup window
            memory::Cycle from = std::max(cumStart, _warmEndCycle);
            res.execTimeAu +=
                static_cast<double>(cumEnd - from) *
                seg.cycleTimeAu;
        }
    } else {
        res.execTimeAu =
            static_cast<double>(res.pipeline.cycles) *
            res.cycleTimeAu;
    }

    res.dl0GuardStalls =
        _mem.dl0Guard().stallCycles() - _snap.dl0Guard;
    res.otherGuardStalls =
        otherGuardStallsNow() - _snap.otherGuard;

    auto rate = [](uint64_t acc, uint64_t hit, uint64_t acc0,
                   uint64_t hit0) {
        return missRatio(acc - acc0, hit - hit0);
    };
    res.il0MissRate =
        rate(_mem.il0().accesses(), _mem.il0().hits(),
             _snap.il0Acc, _snap.il0Hit);
    res.dl0MissRate =
        rate(_mem.dl0().accesses(), _mem.dl0().hits(),
             _snap.dl0Acc, _snap.dl0Hit);
    res.ul1MissRate =
        rate(_mem.ul1().accesses(), _mem.ul1().hits(),
             _snap.ul1Acc, _snap.ul1Hit);
    res.bpAccuracy = branchAccuracy(
        _pipe.branchPredictor().predictions() - _snap.bpPred,
        _pipe.branchPredictor().mispredictions() - _snap.bpMiss);
    res.bpConflictRate = _pipe.bpCorruption().conflictRate();
    return res;
}

} // namespace sim
} // namespace iraw
