#include "sim/stats_report.hh"

#include "obs/metrics.hh"
#include "service/supervisor.hh"
#include "variation/population.hh"

namespace iraw {
namespace sim {

namespace {

/**
 * One report group's lines, registered in the order they print.
 * Counters print exact integers (a double would turn large event
 * counts and byte totals into lossy scientific notation); gauges
 * print doubles at the stream's default precision.
 */
class Group
{
  public:
    Group(obs::MetricsRegistry &registry, std::string name)
        : _registry(registry), _name(std::move(name))
    {}

    void
    counter(const std::string &stat, uint64_t value,
            const std::string &desc = "")
    {
        _registry.counter(_name, stat, desc).set(value);
    }

    void
    gauge(const std::string &stat, double value,
          const std::string &desc = "")
    {
        _registry.gauge(_name, stat, desc).set(value);
    }

  private:
    obs::MetricsRegistry &_registry;
    std::string _name;
};

} // namespace

void
writeStatsReport(std::ostream &os, const SimResult &result)
{
    const core::PipelineStats &p = result.pipeline;
    obs::MetricsRegistry report;

    Group config(report, "config");
    config.gauge("vcc_mV", result.config.vcc, "supply voltage");
    config.counter("iraw_enabled", result.settings.enabled ? 1 : 0,
                   "IRAW avoidance active");
    config.counter("stabilization_cycles",
                   result.settings.stabilizationCycles,
                   "N at this operating point");
    config.counter("dram_cycles", result.dramCycles,
                   "DRAM latency at this clock");

    Group pipe(report, "pipeline");
    pipe.counter("cycles", p.cycles, "simulated cycles");
    pipe.counter("instructions", p.committedInsts,
                 "committed instructions");
    pipe.counter("raw_stall_cycles", p.rawStallCycles,
                 "issue blocked on a true dependence");
    pipe.counter("waw_stall_cycles", p.wawStallCycles,
                 "issue blocked on an in-flight writer");
    pipe.counter("structural_stall_cycles", p.structuralStallCycles,
                 "issue blocked on a functional unit");
    pipe.counter("iq_empty_cycles", p.iqEmptyCycles,
                 "frontend supplied nothing");
    pipe.counter("icache_stall_cycles", p.icacheStallCycles,
                 "fetch blocked on IL0/ITLB");
    pipe.gauge("ipc", p.ipc(), "instructions per cycle");

    Group iraw(report, "iraw");
    iraw.counter("rf_stall_cycles", p.rfIrawStallCycles,
                 "issue blocked by the scoreboard bubble");
    iraw.counter("rf_delayed_insts", p.rfIrawDelayedInsts,
                 "instructions delayed by RF IRAW (paper: 13.2%)");
    iraw.counter("iq_gate_stall_cycles", p.iqGateStallCycles,
                 "Eq. (1) occupancy gate stalls");
    iraw.counter("dl0_replay_stall_cycles", p.dl0ReplayStallCycles,
                 "STable replay recovery stalls");
    iraw.counter("dl0_guard_stall_cycles", result.dl0GuardStalls,
                 "DL0 fill-stabilization stalls");
    iraw.counter("other_guard_stall_cycles", result.otherGuardStalls,
                 "IL0/UL1/TLB/FB fill-stabilization stalls");
    iraw.counter("stable_full_matches", p.stableFullMatches,
                 "loads forwarded from the STable");
    iraw.counter("stable_set_matches", p.stableSetMatches,
                 "set-only STable conflicts");
    iraw.counter("drain_nops", p.drainNops, "injected drain NOOPs");

    Group mem(report, "memory");
    mem.counter("loads", p.loads, "load instructions");
    mem.counter("stores", p.stores, "store instructions");
    mem.counter("load_misses", p.loadMisses, "DL0 load misses");
    mem.gauge("dl0_miss_rate", result.dl0MissRate,
              "DL0 miss rate over the measured window");
    mem.gauge("il0_miss_rate", result.il0MissRate);
    mem.gauge("ul1_miss_rate", result.ul1MissRate);

    Group pred(report, "predictor");
    pred.counter("branches", p.branches, "control-flow instructions");
    pred.counter("mispredicts", p.mispredicts,
                 "direction/target mispredicts");
    pred.counter("rsb_mispredicts", p.rsbMispredicts,
                 "return-target mispredicts");
    pred.counter("bp_conflict_reads", p.bpConflictReads,
                 "BP reads inside a stabilization window");
    pred.counter("rsb_conflict_pops", p.rsbConflictPops,
                 "RSB pops inside a stabilization window");
    pred.gauge("accuracy", result.bpAccuracy,
               "direction predictor accuracy");

    Group timing(report, "timing");
    timing.gauge("cycle_time_au", result.cycleTimeAu,
                 "selected cycle time (a.u., 12FO4@700mV phase = 1)");
    timing.gauge("exec_time_au", result.execTimeAu,
                 "cycles x cycle time");
    timing.gauge("performance", result.performance(),
                 "instructions per a.u. of wall time");

    // Process variation (population runs only): absent on nominal
    // runs so default outputs stay byte-identical.
    if (result.variation.enabled) {
        const VariationInfo &v = result.variation;
        Group var(report, "variation");
        var.counter("chip_index", v.chipIndex,
                    "Monte Carlo chip instance");
        var.counter("worst_n", v.worstN,
                    "worst per-line stabilization cycles applied");
        var.counter("nominal_n", v.nominalN,
                    "the unvaried machine's uniform N here");
        var.gauge("sigma", v.sigma,
                  "per-line lognormal sigma at nominal Vcc");
        var.gauge("max_multiplier", v.maxMultiplier,
                  "worst bitcell-delay multiplier at this Vcc");
    }

    // Dynamic Vcc adaptation (controller-attached runs only):
    // absent on fixed-Vcc runs so default outputs stay
    // byte-identical.
    if (result.adapt.enabled) {
        const adapt::AdaptInfo &a = result.adapt;
        // Power-cap accounting: only on capped or exploring runs,
        // so every pre-existing adapt report stays byte-identical.
        const bool capped =
            a.cap.capPowerAu > 0.0 || adapt::policyExplores(a.policy);
        Group group(report, "adapt");
        group.counter("policy", static_cast<uint64_t>(a.policy),
                      "0=static 1=oracle 2=reactive 3=explore "
                      "4=explore_global");
        group.counter("epoch_cycles", a.epochCycles,
                      "cycles between controller evaluations");
        group.counter("epochs", a.epochs, "boundaries evaluated");
        group.counter("switches", a.switches,
                      "voltage transitions taken");
        group.counter("settle_cycles", a.settleCycles,
                      "idle cycles charged by the switch penalty");
        group.counter("drain_cycles", a.drainCycles,
                      "cycles ticked to quiesce before switches");
        group.counter("segments", a.segments.size(),
                      "constant-voltage stretches of the run");
        group.counter("total_cycles", a.totalCycles,
                      "whole-run cycles (warmup included)");
        group.counter("total_instructions", a.totalInstructions,
                      "whole-run committed instructions");
        if (capped) {
            group.counter("cap_violation_epochs",
                          a.cap.capViolationEpochs,
                          "epochs whose mean power exceeded the cap");
            group.counter("cap_steady_violation_epochs",
                          a.cap.capSteadyViolationEpochs,
                          "cap violations outside exploration");
            group.counter("cap_explore_epochs", a.cap.exploreEpochs,
                          "epochs spent measuring search candidates");
            group.counter("cap_phase_restarts", a.cap.phaseRestarts,
                          "explorations restarted by phase changes");
        }
        group.gauge("initial_vcc_mV", a.initialVcc,
                    "operating point the run started at");
        group.gauge("final_vcc_mV", a.finalVcc,
                    "operating point the run ended at");
        group.gauge("min_vcc_mV", a.minVcc,
                    "lowest operating point reached");
        group.gauge("floor_vcc_mV", a.floorVcc,
                    "lowest point the controller may select (Vccmin)");
        group.gauge("time_weighted_vcc_mV", a.timeWeightedVcc,
                    "exec-time-weighted mean operating voltage");
        group.gauge("exec_time_au", a.execTimeAu,
                    "whole-run execution time over all segments");
        group.gauge("switch_energy_au", a.switchEnergyAu,
                    "transition energy (switches x switchenergy)");
        group.gauge("energy_dynamic_au", a.energy.dynamic,
                    "dynamic energy incl. transition energy");
        group.gauge("energy_leakage_au", a.energy.leakage,
                    "leakage energy over all segments");
        group.gauge("energy_total_au", a.energy.total(),
                    "whole-run energy at the adapted operating points");
        if (capped) {
            group.gauge("cap_power_au", a.cap.capPowerAu,
                        "configured power budget (0 = uncapped)");
            group.gauge("cap_clean_energy_au", a.cap.capCleanEnergyAu,
                        "energy of the epochs that respected the cap");
        }
    }

    // Host wall time (profile=1 only): wall-clock numbers are
    // nondeterministic, so they stay out of default reports to keep
    // output diffs (threads=1 vs N, sharded vs in-process)
    // byte-identical.
    if (result.config.profile) {
        const HostProfile &host = result.host;
        Group perf(report, "perf");
        perf.gauge("sim_wall_seconds", host.wallSeconds,
                   "host wall time inside the cycle loop");
        perf.gauge("minsts_per_sec", host.minstsPerSecond(),
                   "committed Minsts per wall second (incl. warmup)");
    }

    obs::writeSnapshot(os, report.snapshot());
}

void
writeVariationReport(std::ostream &os,
                     const variation::PopulationResult &result)
{
    obs::MetricsRegistry report;
    Group var(report, "variation");
    var.counter("chips", result.totalChips, "sampled chip instances");
    var.counter("yielding_chips", result.yieldingChips,
                "chips operable somewhere on the grid");
    var.counter("chipseed", result.populationSeed,
                "population master seed");
    var.gauge("yield",
              result.totalChips
                  ? static_cast<double>(result.yieldingChips) /
                        result.totalChips
                  : 0.0,
              "fraction of chips operable somewhere on the grid");
    var.gauge("mean_vccmin_mV", result.meanVccmin,
              "mean Vccmin over yielding chips");
    var.gauge("sigma", result.params.sigma,
              "per-line lognormal sigma at nominal Vcc");
    var.gauge("systematic_sigma", result.params.systematicSigma,
              "per-structure lognormal sigma at nominal Vcc");
    if (!result.voltages.empty())
        var.gauge("yield_at_min_vcc", result.yieldAt.back(),
                  "yield at the lowest grid voltage");
    obs::writeSnapshot(os, report.snapshot());
}

void
addTraceStoreMetrics(obs::MetricsRegistry &registry,
                     const trace::TraceStore::Stats &stats)
{
    Group store(registry, "trace_store");
    store.counter("hits", stats.hits, "acquisitions served from memory");
    store.counter("misses", stats.misses,
                  "acquisitions that materialized");
    store.counter("evictions", stats.evictions,
                  "buffers dropped by the LRU cap");
    store.counter("buffers", stats.buffers, "resident trace buffers");
    store.counter("bytes_in_use", stats.bytesInUse,
                  "resident payload bytes");
    store.counter("byte_cap", stats.byteCap,
                  "configured in-memory bound");
}

void
addServiceMetrics(obs::MetricsRegistry &registry,
                  const service::ServiceStats &s)
{
    Group svc(registry, "service");
    service::ServiceStats::fields(
        [&svc](const char *name, const char *desc, uint64_t value) {
            svc.counter(name, value, desc);
        },
        s);
}

void
writeServiceReport(std::ostream &os, const service::ServiceStats &s)
{
    obs::MetricsRegistry report;
    addServiceMetrics(report, s);
    obs::writeSnapshot(os, report.snapshot());
    for (const std::string &stem : s.failedShards)
        os << "service.failed_shard " << stem
           << " # points zeroed; rerun with resume=\n";
}

} // namespace sim
} // namespace iraw
