/**
 * @file
 * One simulation run as an object: Simulator::run() builds a SimEngine
 * and calls run() once.
 *
 * A SimEngine owns everything a run needs (trace cursor, memory
 * hierarchy, pipeline, optional Vcc controller) and drives it through
 * the warmup and measured phases.  Fixed-Vcc runs hand each phase to
 * Pipeline::run() whole.  Adaptive runs cut each phase at the
 * controller's epoch boundaries with Pipeline::runUntil().
 *
 * Determinism contract: an epoch boundary only picks the *stop cycle*
 * handed to runUntil(); the instruction budget passed through is
 * always the full phase target.  The budget is visible to the issue
 * stage (the slot loop stops exactly at the budget), so chunking by
 * instruction count would perturb the final cycle of every chunk --
 * chunking by stop cycle provably does not, because runUntil()
 * executes the identical tick sequence for any chunking of the same
 * budget (invariant 1, docs/ARCHITECTURE.md).  A controller that
 * never switches (Policy::Static) is therefore bitwise identical to
 * the fixed-Vcc run.
 */

#ifndef IRAW_SIM_SIM_ENGINE_HH
#define IRAW_SIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>

#include "adapt/vcc_controller.hh"
#include "core/pipeline.hh"
#include "iraw/controller.hh"
#include "memory/hierarchy.hh"
#include "sim/simulation.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace sim {

/** One simulation run: construct, run(), read the result. */
class SimEngine
{
  public:
    /** Builds the machine and applies the initial operating point. */
    SimEngine(const Simulator &sim, const SimConfig &cfg);

    /** Run every phase to completion and assemble the SimResult.
     *  One-shot: a second call is a usage error. */
    SimResult run();

  private:
    /** Cache/predictor counters at the warmup boundary. */
    struct MemSnapshot
    {
        uint64_t il0Acc = 0, il0Hit = 0;
        uint64_t dl0Acc = 0, dl0Hit = 0;
        uint64_t ul1Acc = 0, ul1Hit = 0;
        uint64_t dl0Guard = 0, otherGuard = 0;
        uint64_t bpPred = 0, bpMiss = 0;
    };

    /** Validation gate run before any member construction. */
    static const SimConfig &validated(const SimConfig &cfg);

    void applyOperatingPoint(circuit::MilliVolts vcc);
    uint64_t otherGuardStallsNow() const;
    uint64_t irawStallsNow() const;
    void closeSegment();

    /** Tick until @p target committed instructions (or the trace
     *  drains), evaluating the adaptive controller at every epoch
     *  boundary on the way. */
    void runPhase(uint64_t target);
    /** Snapshot every counter at the end of the warmup window. */
    void endWarmup();
    SimResult finalize();

    const Simulator &_sim;
    SimConfig _cfg;
    SimResult _res;

    mechanism::IrawController _controller;
    std::unique_ptr<adapt::VccController> _vctl;
    circuit::MilliVolts _opVcc;

    trace::ReplayTraceSource _src;
    memory::MemoryHierarchy _mem;
    core::Pipeline _pipe;

    /** Borrowed from SimConfig::tracer; null = tracing off. */
    obs::EventTracer *_tracer = nullptr;
    uint64_t _epochWallUs = 0;

    bool _ran = false;

    // Epoch-loop bookkeeping (adaptive runs only).
    uint64_t _totalBudget = 0;
    memory::Cycle _nextEpoch = 0;
    memory::Cycle _epochStartCycle = 0;
    uint64_t _epochStartInsts = 0;
    uint64_t _epochStartIraw = 0;
    memory::Cycle _segStartCycle = 0;
    uint64_t _segStartInsts = 0;
    uint64_t _segSettle = 0;
    memory::Cycle _warmEndCycle = 0;

    core::PipelineStats _warm;
    MemSnapshot _snap;
};

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_SIM_ENGINE_HH
