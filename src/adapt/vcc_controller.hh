/**
 * @file
 * Dynamic Vcc adaptation: an interval-driven controller that picks
 * each chip's operating point at run time instead of provisioning a
 * single worst-case voltage for the whole run.
 *
 * The paper's headline result is that IRAW-guarded stabilization
 * lets a core *lower* Vcc safely; the fixed-Vcc sweeps elsewhere in
 * this repo only compare static operating points.  The VccController
 * closes the loop: every `epoch` cycles it re-evaluates the
 * operating point from observed stall/IPC telemetry and the chip's
 * own Vccmin (from variation::ChipSample when one is attached), and
 * a transition model charges every voltage switch a drain + settle
 * penalty in cycles and energy.
 *
 * Policies:
 *  - Static:   never moves; with the nominal chip this reproduces a
 *              fixed-Vcc run bitwise (the regression anchor).
 *  - Oracle:   starts directly at the floor voltage (the chip's own
 *              Vccmin, or the configured floor) — offline knowledge,
 *              zero transitions.
 *  - Reactive: starts at the provisioned voltage and steps down one
 *              grid point per epoch while the IRAW stall fraction
 *              stays below `stepDownThreshold`; steps back up (and
 *              settles) when it exceeds `stepUpThreshold`.
 *  - Explore / ExploreGlobal: power-capped joint search over the
 *              (Vcc level x IRAW mode x issue throttle) space, one
 *              epoch-long measurement per candidate.  Explore
 *              descends greedily level by level with level-best /
 *              global-best tracking and stops at the first level
 *              that fails to improve the best feasible point;
 *              ExploreGlobal measures every candidate.  Both then
 *              exploit the best configuration whose measured power
 *              respects the cap (falling back to the lowest-power
 *              candidate when nothing is feasible), and a phase
 *              change — an IPC or stall-fraction shift beyond a
 *              threshold, or a cap violation, sustained for a
 *              hysteresis window — restarts the search.
 *
 * Determinism: decisions are pure functions of simulated telemetry,
 * so adaptive runs stay bitwise identical across thread counts and
 * repeated runs, like everything else in the simulator.
 */

#ifndef IRAW_ADAPT_VCC_CONTROLLER_HH
#define IRAW_ADAPT_VCC_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/power_model.hh"
#include "circuit/energy.hh"
#include "circuit/voltage.hh"
#include "common/field_count.hh"
#include "iraw/controller.hh"

namespace iraw {

namespace core {
struct CoreConfig;
}
namespace variation {
class ChipSample;
}

namespace adapt {

/** How the controller chooses operating points. */
enum class Policy : uint8_t
{
    Static = 0,   //!< stay at the provisioned voltage forever
    Oracle = 1,   //!< start at the floor (offline-known best point)
    Reactive = 2, //!< step down/up from epoch telemetry
    Explore = 3,  //!< capped greedy level-by-level search
    ExploreGlobal = 4 //!< capped exhaustive search, then exploit
};

/** Stable lower-case name (stats keys, CLI values). */
const char *policyName(Policy policy);

/** Parse a policy= value; throws FatalError on unknown names. */
Policy policyByName(const std::string &name);

/** True for the searching policies (Explore / ExploreGlobal). */
bool policyExplores(Policy policy);

/** Everything one adaptive run needs. */
struct AdaptConfig
{
    Policy policy = Policy::Static;

    /** Cycles between controller evaluations (epoch=). */
    uint64_t epochCycles = 20000;

    /**
     * Transition model: settle cycles charged per Vcc switch after
     * the pipeline drains (switchcycles=).  During the settle window
     * the core is idle and every SRAM cell stabilizes, so the switch
     * is safe regardless of the in-flight state before it.
     */
    uint32_t switchCycles = 2000;

    /** Energy charged per switch, a.u. (switchenergy=). */
    double switchEnergyAu = 25.0;

    /**
     * Lowest voltage the controller may select (floor=, mV).  0
     * derives the floor: the chip sample's own Vccmin when one is
     * attached, else the lowest grid voltage the nominal hardware
     * provisioning operates at.  A positive value raises the derived
     * floor (worst-case provisioning across a population).
     */
    circuit::MilliVolts floorVcc = 0.0;

    /** Reactive: step down while stall fraction stays below this. */
    double stepDownThreshold = 0.05;
    /** Reactive: step back up (and settle) above this. */
    double stepUpThreshold = 0.20;

    /**
     * Energy calibration: execution time per instruction (a.u.) of
     * the baseline machine at the EnergyModel reference voltage.
     * Scenarios that want paper-comparable energy derive it from a
     * 600 mV baseline run; 1.0 keeps per-run energy self-consistent.
     */
    double refTimePerInst = 1.0;

    /** IRAW dynamic-energy overhead fraction while IRAW is active. */
    double irawDynOverhead = 0.01;

    /**
     * Power budget in a.u. energy per a.u. time (cap= / power=).
     * 0 disables the cap.  Explore policies treat candidates whose
     * measured epoch power exceeds it as infeasible; every policy
     * accounts violation epochs and energy-under-cap against it.
     */
    double capPowerAu = 0.0;

    /**
     * Explore: stabilization-mode variants per Vcc level (modes=).
     * 1 searches the run's own IRAW mode only; 2 also tries the
     * complementary mode — a different (N, cycle time) trade at the
     * same voltage.  Forced to 1 when a chip sample is attached
     * (per-line stabilization maps are derived for the run's mode).
     */
    uint32_t modeVariants = 2;

    /**
     * Explore: issue-width variants per Vcc level (throttles=).
     * 1 searches the provisioned width only; 2 also tries a 1-wide
     * throttle (lower power at the same voltage).
     */
    uint32_t throttleVariants = 2;

    /** Explore: consecutive out-of-band epochs before the search
     *  restarts on a phase change (hysteresis=). */
    uint32_t hysteresisEpochs = 3;

    /** Explore: relative IPC shift flagging a phase change
     *  (phaseipc=). */
    double phaseIpcThreshold = 0.25;

    /** Explore: absolute stall-fraction shift flagging a phase
     *  change (phasestall=). */
    double phaseStallThreshold = 0.10;

    /**
     * Explore: selection headroom — a candidate only counts as
     * feasible when its measured power fits this fraction of the
     * cap, so the chosen point rides out per-epoch power noise
     * instead of parking on the boundary and violating at steady
     * state.  Violations are always scored against the raw cap.
     */
    double capSelectFraction = 0.85;

    /**
     * Pre-resolved operability floor (mV): when nonzero the
     * controller trusts it and skips its own top-down grid prefix
     * scan — population sweeps resolve each chip's floor once (its
     * ChipSummary Vccmin) instead of once per run.  Must equal what
     * the scan would find for bitwise-identical results; 0 scans.
     */
    circuit::MilliVolts resolvedFloorVcc = 0.0;

    /** Throws FatalError on nonsensical values. */
    void validate() const;
};

/** What the controller observes per epoch. */
struct EpochTelemetry
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    /** Core + memory IRAW stall cycles inside the epoch. */
    uint64_t irawStallCycles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }

    double
    irawStallFraction() const
    {
        return cycles ? static_cast<double>(irawStallCycles) / cycles
                      : 0.0;
    }
};

/** One controller verdict. */
struct Decision
{
    bool switchVcc = false;
    circuit::MilliVolts target = 0.0;
    /** IRAW mode of the target point (explore may flip it). */
    mechanism::IrawMode mode = mechanism::IrawMode::Auto;
    /** Effective issue width at the target (0 = provisioned). */
    uint32_t issueThrottle = 0;
};

/** One candidate of the explore policies' joint search space. */
struct ExploreConfig
{
    circuit::MilliVolts vcc = 0.0;
    mechanism::IrawMode mode = mechanism::IrawMode::Auto;
    /** Effective issue width (0 = provisioned full width). */
    uint32_t issueThrottle = 0;
    /** Voltage level index: 0 = the provisioned start voltage. */
    uint32_t level = 0;
};

/**
 * The operability floor the controller derives for this machine:
 * cfg.resolvedFloorVcc when set, else the top-down grid prefix scan
 * (the chip's own Vccmin rule), raised to cfg.floorVcc and clamped
 * to the provisioned start.
 */
circuit::MilliVolts
resolveFloorVcc(const circuit::CycleTimeModel &model,
                const AdaptConfig &cfg, mechanism::IrawMode mode,
                circuit::MilliVolts startVcc,
                const core::CoreConfig &core,
                const variation::ChipSample *chip);

/**
 * The joint (Vcc level x mode x throttle) space the explore
 * policies search, in visit order: levels descend from the start
 * voltage to the floor; within a level the provisioned variant
 * comes first, then the alternate mode, then the throttled widths.
 * Candidate 0 is always the provisioned starting configuration.
 * Inoperable (vcc, mode) combinations are filtered out.  The
 * offline oracle enumerates exactly this space.
 */
std::vector<ExploreConfig>
exploreSpace(const circuit::CycleTimeModel &model,
             const AdaptConfig &cfg, mechanism::IrawMode mode,
             circuit::MilliVolts startVcc,
             const core::CoreConfig &core,
             const variation::ChipSample *chip);

/** Power-cap accounting every policy keeps when a cap is set. */
struct CapStats
{
    /** The configured budget (0 = uncapped). */
    double capPowerAu = 0.0;
    /** Epochs whose mean power exceeded the cap. */
    uint64_t capViolationEpochs = 0;
    /** Violations outside exploration (steady state). */
    uint64_t capSteadyViolationEpochs = 0;
    /** Energy of the epochs that respected the cap, a.u. */
    double capCleanEnergyAu = 0.0;
    /** Epochs spent measuring search candidates. */
    uint64_t exploreEpochs = 0;
    /** Explorations restarted by phase-change detection. */
    uint64_t phaseRestarts = 0;
};

/**
 * One constant-voltage stretch of an adaptive run.  A new segment
 * opens at every switch; its settle cycles (the transition penalty)
 * are charged at the segment's own (new) cycle time.
 */
struct AdaptSegment
{
    circuit::MilliVolts vcc = 0.0;
    double cycleTimeAu = 0.0;
    bool irawOn = false;
    uint64_t cycles = 0;       //!< includes settleCycles
    uint64_t settleCycles = 0; //!< transition penalty portion
    uint64_t instructions = 0;
    /** Segment energy at this operating point (switch energy is
     *  accounted separately, once per transition). */
    circuit::EnergyBreakdown energy;

    double execTimeAu() const { return cycles * cycleTimeAu; }

    /** The one list of a segment's values (see
     *  core::PipelineStats::fields), energy inline. */
    template <class V, class... R>
    static void
    fields(V &&v, R &...r)
    {
        v("vcc", r.vcc...);
        v("cycleTimeAu", r.cycleTimeAu...);
        v("irawOn", r.irawOn...);
        v("cycles", r.cycles...);
        v("settleCycles", r.settleCycles...);
        v("instructions", r.instructions...);
        v("energy.dynamic", r.energy.dynamic...);
        v("energy.leakage", r.energy.leakage...);
    }
};

static_assert(fieldCount<AdaptSegment>() == 7 &&
                  fieldCount<circuit::EnergyBreakdown>() == 2,
              "list the new AdaptSegment member in fields()");

/** Per-run adaptation facts (stats reporting and tests). */
struct AdaptInfo
{
    bool enabled = false;
    Policy policy = Policy::Static;
    uint64_t epochCycles = 0;
    uint64_t epochs = 0;   //!< boundaries evaluated
    uint32_t switches = 0; //!< voltage transitions taken
    uint64_t settleCycles = 0; //!< switches * switchCycles
    uint64_t drainCycles = 0;  //!< cycles ticked to quiesce

    circuit::MilliVolts initialVcc = 0.0;
    circuit::MilliVolts finalVcc = 0.0;
    circuit::MilliVolts minVcc = 0.0;
    circuit::MilliVolts floorVcc = 0.0;

    /** Whole-run totals (warmup included; the controller's world). */
    uint64_t totalCycles = 0;
    uint64_t totalInstructions = 0;
    double execTimeAu = 0.0; //!< sum of segment exec times

    /** Exec-time-weighted mean operating voltage. */
    double timeWeightedVcc = 0.0;

    /** Transition energy total: switches * switchEnergyAu. */
    double switchEnergyAu = 0.0;
    /** Run energy: segment energies plus switch energy (dynamic). */
    circuit::EnergyBreakdown energy;

    /** Power-cap accounting (all zeros when no cap was set). */
    CapStats cap;

    std::vector<AdaptSegment> segments;
};

/**
 * The decision engine.  Owns no pipeline state: the simulator feeds
 * it per-epoch telemetry and applies the decisions it returns, so
 * the policy logic is unit-testable in isolation.
 */
class VccController
{
  public:
    /**
     * @param model the circuit model (operating-point solutions)
     * @param cfg   controller configuration (validated)
     * @param mode  IRAW mode of the run (floor derivation matches
     *              what the machine will actually do at each point)
     * @param startVcc the provisioned voltage the run begins at
     * @param core  hardware provisioning (max N, scoreboard width)
     * @param chip  sampled chip instance, or null for the nominal
     *              machine; the floor becomes the chip's own Vccmin
     */
    VccController(const circuit::CycleTimeModel &model,
                  const AdaptConfig &cfg, mechanism::IrawMode mode,
                  circuit::MilliVolts startVcc,
                  const core::CoreConfig &core,
                  const variation::ChipSample *chip);

    /** Where the run starts: the floor for Oracle, else startVcc. */
    circuit::MilliVolts initialVcc() const { return _initial; }

    circuit::MilliVolts floorVcc() const { return _floor; }
    uint64_t epochs() const { return _epochs; }

    /** Power-cap accounting accumulated so far. */
    const CapStats &capStats() const { return _cap; }

    /** The search space (empty for non-explore policies). */
    const std::vector<ExploreConfig> &searchSpace() const
    {
        return _space;
    }

    /** True while an explore policy is still measuring candidates. */
    bool exploring() const { return _search == Search::Exploring; }

    /**
     * One epoch boundary: evaluate the telemetry and decide.  When
     * the decision switches, the controller's current voltage moves
     * with it (the simulator always applies returned switches).
     */
    Decision evaluate(const EpochTelemetry &telemetry);

  private:
    enum class Search : uint8_t
    {
        Off,       //!< non-explore policy
        Exploring, //!< measuring one candidate per epoch
        Exploiting //!< parked on the best feasible candidate
    };

    /** Per-candidate measurement record (one epoch each). */
    struct Measurement
    {
        bool measured = false;
        bool feasible = false;
        double performance = 0.0;
        double powerAu = 0.0;
        double ipc = 0.0;
        double stallFraction = 0.0;
    };

    /** Highest grid voltage strictly below @p vcc, or 0 if none
     *  (or if it would dip under the floor). */
    circuit::MilliVolts nextDown(circuit::MilliVolts vcc) const;
    /** Lowest grid voltage strictly above @p vcc, capped at the
     *  provisioned start; 0 if none. */
    circuit::MilliVolts nextUp(circuit::MilliVolts vcc) const;

    /** The reactive step policy (unchanged from the pre-cap era). */
    Decision evaluateReactive(const EpochTelemetry &telemetry);
    /** The explore/exploit state machine. */
    Decision evaluateExplore(const EpochTelemetry &telemetry,
                             double powerAu);

    /** A decision that moves the machine to @p target (no-op when
     *  the machine is already there). */
    Decision switchTo(const ExploreConfig &target);

    /** Better-candidate ordering: higher performance wins, ties
     *  prefer lower power. */
    bool betterThan(const Measurement &a, const Measurement &b) const;

    /** Next candidate to measure, or SIZE_MAX when the search is
     *  over (greedy level walk for Explore, linear for Global). */
    size_t nextCandidate();

    /** The candidate exploitation parks on once the search ends. */
    size_t chooseBest() const;

    /** Best measured feasible candidate, or SIZE_MAX. */
    size_t bestMeasured() const;

    /** Park on candidate @p chosen: arm the phase detector with its
     *  measured signature and move the machine there. */
    Decision park(size_t chosen);

    /** Reset the search to candidate 0 (phase restart). */
    void restartSearch();

    AdaptConfig _cfg;
    PowerModel _power;
    std::vector<circuit::MilliVolts> _grid; //!< descending
    mechanism::IrawMode _mode;
    circuit::MilliVolts _start = 0.0;
    circuit::MilliVolts _initial = 0.0;
    circuit::MilliVolts _floor = 0.0;
    circuit::MilliVolts _current = 0.0;
    uint64_t _epochs = 0;
    /** Reactive: a step up ends the descent for good (hysteresis —
     *  the level below is known to stall too much). */
    bool _settled = false;

    // Explore machinery.
    std::vector<ExploreConfig> _space;
    std::vector<Measurement> _measured;
    Search _search = Search::Off;
    size_t _cursor = 0; //!< candidate the machine is running
    size_t _best = SIZE_MAX; //!< best feasible candidate so far
    /** The operating configuration actually applied right now. */
    ExploreConfig _applied;
    double _refIpc = 0.0;
    double _refStall = 0.0;
    uint32_t _outOfBand = 0;
    CapStats _cap;
};

} // namespace adapt
} // namespace iraw

#endif // IRAW_ADAPT_VCC_CONTROLLER_HH
