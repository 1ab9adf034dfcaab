#include "sim/stats_report.hh"

#include "common/stats.hh"
#include "obs/metrics.hh"
#include "service/supervisor.hh"
#include "variation/population.hh"

namespace iraw {
namespace sim {

void
writeStatsReport(std::ostream &os, const SimResult &result)
{
    const core::PipelineStats &p = result.pipeline;

    stats::Group config("config");
    config.addScalar("vcc_mV", "supply voltage").set(
        static_cast<uint64_t>(result.config.vcc));
    config.addScalar("iraw_enabled", "IRAW avoidance active")
        .set(result.settings.enabled ? 1 : 0);
    config.addScalar("stabilization_cycles",
                     "N at this operating point")
        .set(result.settings.stabilizationCycles);
    config.addScalar("dram_cycles",
                     "DRAM latency at this clock")
        .set(result.dramCycles);

    stats::Group pipe("pipeline");
    pipe.addScalar("cycles", "simulated cycles").set(p.cycles);
    pipe.addScalar("instructions", "committed instructions")
        .set(p.committedInsts);
    pipe.addFormula(
        "ipc", [&p]() { return p.ipc(); },
        "instructions per cycle");
    pipe.addScalar("raw_stall_cycles",
                   "issue blocked on a true dependence")
        .set(p.rawStallCycles);
    pipe.addScalar("waw_stall_cycles",
                   "issue blocked on an in-flight writer")
        .set(p.wawStallCycles);
    pipe.addScalar("structural_stall_cycles",
                   "issue blocked on a functional unit")
        .set(p.structuralStallCycles);
    pipe.addScalar("iq_empty_cycles", "frontend supplied nothing")
        .set(p.iqEmptyCycles);
    pipe.addScalar("icache_stall_cycles",
                   "fetch blocked on IL0/ITLB")
        .set(p.icacheStallCycles);

    stats::Group iraw("iraw");
    iraw.addScalar("rf_stall_cycles",
                   "issue blocked by the scoreboard bubble")
        .set(p.rfIrawStallCycles);
    iraw.addScalar("rf_delayed_insts",
                   "instructions delayed by RF IRAW (paper: 13.2%)")
        .set(p.rfIrawDelayedInsts);
    iraw.addScalar("iq_gate_stall_cycles",
                   "Eq. (1) occupancy gate stalls")
        .set(p.iqGateStallCycles);
    iraw.addScalar("dl0_replay_stall_cycles",
                   "STable replay recovery stalls")
        .set(p.dl0ReplayStallCycles);
    iraw.addScalar("dl0_guard_stall_cycles",
                   "DL0 fill-stabilization stalls")
        .set(result.dl0GuardStalls);
    iraw.addScalar("other_guard_stall_cycles",
                   "IL0/UL1/TLB/FB fill-stabilization stalls")
        .set(result.otherGuardStalls);
    iraw.addScalar("stable_full_matches",
                   "loads forwarded from the STable")
        .set(p.stableFullMatches);
    iraw.addScalar("stable_set_matches",
                   "set-only STable conflicts")
        .set(p.stableSetMatches);
    iraw.addScalar("drain_nops", "injected drain NOOPs")
        .set(p.drainNops);

    stats::Group mem("memory");
    mem.addScalar("loads", "load instructions").set(p.loads);
    mem.addScalar("stores", "store instructions").set(p.stores);
    mem.addScalar("load_misses", "DL0 load misses")
        .set(p.loadMisses);
    mem.addFormula(
        "dl0_miss_rate",
        [&result]() { return result.dl0MissRate; },
        "DL0 miss rate over the measured window");
    mem.addFormula(
        "il0_miss_rate",
        [&result]() { return result.il0MissRate; }, "");
    mem.addFormula(
        "ul1_miss_rate",
        [&result]() { return result.ul1MissRate; }, "");

    stats::Group pred("predictor");
    pred.addScalar("branches", "control-flow instructions")
        .set(p.branches);
    pred.addScalar("mispredicts", "direction/target mispredicts")
        .set(p.mispredicts);
    pred.addScalar("rsb_mispredicts", "return-target mispredicts")
        .set(p.rsbMispredicts);
    pred.addFormula(
        "accuracy", [&result]() { return result.bpAccuracy; },
        "direction predictor accuracy");
    pred.addScalar("bp_conflict_reads",
                   "BP reads inside a stabilization window")
        .set(p.bpConflictReads);
    pred.addScalar("rsb_conflict_pops",
                   "RSB pops inside a stabilization window")
        .set(p.rsbConflictPops);

    stats::Group timing("timing");
    timing.addFormula(
        "cycle_time_au",
        [&result]() { return result.cycleTimeAu; },
        "selected cycle time (a.u., 12FO4@700mV phase = 1)");
    timing.addFormula(
        "exec_time_au", [&result]() { return result.execTimeAu; },
        "cycles x cycle time");
    timing.addFormula(
        "performance",
        [&result]() { return result.performance(); },
        "instructions per a.u. of wall time");

    config.dump(os);
    pipe.dump(os);
    iraw.dump(os);
    mem.dump(os);
    pred.dump(os);
    timing.dump(os);

    // Process variation (population runs only): absent on nominal
    // runs so default outputs stay byte-identical.
    if (result.variation.enabled) {
        const VariationInfo &v = result.variation;
        stats::Group var("variation");
        var.addScalar("chip_index", "Monte Carlo chip instance")
            .set(v.chipIndex);
        var.addFormula(
            "sigma", [&v]() { return v.sigma; },
            "per-line lognormal sigma at nominal Vcc");
        var.addFormula(
            "max_multiplier",
            [&v]() { return v.maxMultiplier; },
            "worst bitcell-delay multiplier at this Vcc");
        var.addScalar("worst_n",
                      "worst per-line stabilization cycles applied")
            .set(v.worstN);
        var.addScalar("nominal_n",
                      "the unvaried machine's uniform N here")
            .set(v.nominalN);
        var.dump(os);
    }

    // Dynamic Vcc adaptation (controller-attached runs only):
    // absent on fixed-Vcc runs so default outputs stay
    // byte-identical.
    if (result.adapt.enabled) {
        const adapt::AdaptInfo &a = result.adapt;
        stats::Group group("adapt");
        group.addScalar("policy",
                        "0=static 1=oracle 2=reactive 3=explore "
                        "4=explore_global")
            .set(static_cast<uint64_t>(a.policy));
        group.addScalar("epoch_cycles",
                        "cycles between controller evaluations")
            .set(a.epochCycles);
        group.addScalar("epochs", "boundaries evaluated")
            .set(a.epochs);
        group.addScalar("switches", "voltage transitions taken")
            .set(a.switches);
        group.addScalar("settle_cycles",
                        "idle cycles charged by the switch penalty")
            .set(a.settleCycles);
        group.addScalar("drain_cycles",
                        "cycles ticked to quiesce before switches")
            .set(a.drainCycles);
        group.addScalar("segments",
                        "constant-voltage stretches of the run")
            .set(a.segments.size());
        group.addFormula(
            "initial_vcc_mV", [&a]() { return a.initialVcc; },
            "operating point the run started at");
        group.addFormula(
            "final_vcc_mV", [&a]() { return a.finalVcc; },
            "operating point the run ended at");
        group.addFormula(
            "min_vcc_mV", [&a]() { return a.minVcc; },
            "lowest operating point reached");
        group.addFormula(
            "floor_vcc_mV", [&a]() { return a.floorVcc; },
            "lowest point the controller may select (Vccmin)");
        group.addFormula(
            "time_weighted_vcc_mV",
            [&a]() { return a.timeWeightedVcc; },
            "exec-time-weighted mean operating voltage");
        group.addScalar("total_cycles",
                        "whole-run cycles (warmup included)")
            .set(a.totalCycles);
        group.addScalar("total_instructions",
                        "whole-run committed instructions")
            .set(a.totalInstructions);
        group.addFormula(
            "exec_time_au", [&a]() { return a.execTimeAu; },
            "whole-run execution time over all segments");
        group.addFormula(
            "switch_energy_au",
            [&a]() { return a.switchEnergyAu; },
            "transition energy (switches x switchenergy)");
        group.addFormula(
            "energy_dynamic_au",
            [&a]() { return a.energy.dynamic; },
            "dynamic energy incl. transition energy");
        group.addFormula(
            "energy_leakage_au",
            [&a]() { return a.energy.leakage; },
            "leakage energy over all segments");
        group.addFormula(
            "energy_total_au",
            [&a]() { return a.energy.total(); },
            "whole-run energy at the adapted operating points");
        // Power-cap accounting: only on capped or exploring runs,
        // so every pre-existing adapt report stays byte-identical.
        if (a.cap.capPowerAu > 0.0 ||
            adapt::policyExplores(a.policy)) {
            group.addFormula(
                "cap_power_au",
                [&a]() { return a.cap.capPowerAu; },
                "configured power budget (0 = uncapped)");
            group.addScalar(
                     "cap_violation_epochs",
                     "epochs whose mean power exceeded the cap")
                .set(a.cap.capViolationEpochs);
            group.addScalar(
                     "cap_steady_violation_epochs",
                     "cap violations outside exploration")
                .set(a.cap.capSteadyViolationEpochs);
            group.addFormula(
                "cap_clean_energy_au",
                [&a]() { return a.cap.capCleanEnergyAu; },
                "energy of the epochs that respected the cap");
            group.addScalar(
                     "cap_explore_epochs",
                     "epochs spent measuring search candidates")
                .set(a.cap.exploreEpochs);
            group.addScalar(
                     "cap_phase_restarts",
                     "explorations restarted by phase changes")
                .set(a.cap.phaseRestarts);
        }
        group.dump(os);
    }

    // Host wall time (profile=1 only): wall-clock numbers are
    // nondeterministic, so they stay out of default reports to keep
    // output diffs (threads=1 vs N, store on/off) byte-identical.
    // Rendered from a MetricsRegistry snapshot (the one flat-report
    // printer shared with the telemetry layer).
    if (result.config.profile) {
        const HostProfile &host = result.host;
        obs::MetricsRegistry perf;
        perf.gauge("perf", "sim_wall_seconds",
                   "host wall time inside the cycle loop")
            .set(host.wallSeconds);
        perf.gauge("perf", "minsts_per_sec",
                   "committed Minsts per wall second (incl. warmup)")
            .set(host.minstsPerSecond());
        obs::writeSnapshot(os, perf.snapshot());
    }
}

void
writeTraceStoreReport(std::ostream &os,
                      const trace::TraceStore::Stats &stats)
{
    obs::MetricsRegistry store;
    store.counter("trace_store", "hits",
                  "acquisitions served from memory")
        .set(stats.hits);
    store.counter("trace_store", "misses",
                  "acquisitions that materialized")
        .set(stats.misses);
    store.counter("trace_store", "disk_hits",
                  "misses served from the disk cache")
        .set(stats.diskHits);
    store.counter("trace_store", "disk_bad_files",
                  "corrupt cache files deleted on read")
        .set(stats.diskBadFiles);
    store.counter("trace_store", "stale_tmp_files",
                  "orphaned write-temporaries swept at startup")
        .set(stats.staleTmpFiles);
    store.counter("trace_store", "evictions",
                  "buffers dropped by the LRU cap")
        .set(stats.evictions);
    store.counter("trace_store", "buffers", "resident trace buffers")
        .set(stats.buffers);
    store.counter("trace_store", "bytes_in_use",
                  "resident payload bytes")
        .set(stats.bytesInUse);
    store.counter("trace_store", "byte_cap",
                  "configured in-memory bound")
        .set(stats.byteCap);
    obs::writeSnapshot(os, store.snapshot());
}

void
writeVariationReport(std::ostream &os,
                     const variation::PopulationResult &result)
{
    stats::Group var("variation");
    var.addScalar("chips", "sampled chip instances")
        .set(result.totalChips);
    var.addScalar("yielding_chips",
                  "chips operable somewhere on the grid")
        .set(result.yieldingChips);
    var.addFormula(
        "yield",
        [&result]() {
            return result.totalChips
                       ? static_cast<double>(result.yieldingChips) /
                             result.totalChips
                       : 0.0;
        },
        "fraction of chips operable somewhere on the grid");
    var.addFormula(
        "mean_vccmin_mV",
        [&result]() { return result.meanVccmin; },
        "mean Vccmin over yielding chips");
    var.addFormula(
        "sigma", [&result]() { return result.params.sigma; },
        "per-line lognormal sigma at nominal Vcc");
    var.addFormula(
        "systematic_sigma",
        [&result]() { return result.params.systematicSigma; },
        "per-structure lognormal sigma at nominal Vcc");
    var.addScalar("chipseed", "population master seed")
        .set(result.populationSeed);
    if (!result.voltages.empty()) {
        const double lowYield = result.yieldAt.back();
        var.addFormula(
            "yield_at_min_vcc",
            [lowYield]() { return lowYield; },
            "yield at the lowest grid voltage");
    }
    var.dump(os);
}

void
writeServiceReport(std::ostream &os,
                   const service::ServiceStats &s)
{
    obs::MetricsRegistry svc;
    svc.counter("service", "calls", "sharded runConfigs calls")
        .set(s.calls);
    svc.counter("service", "shards", "shards across all manifests")
        .set(s.shardsTotal);
    svc.counter("service", "shards_completed",
                "shards finished by workers")
        .set(s.shardsCompleted);
    svc.counter("service", "shards_reused",
                "complete spools reused on resume")
        .set(s.shardsReused);
    svc.counter("service", "failed_shards",
                "shards that exhausted their retries")
        .set(s.shardsFailed);
    svc.counter("service", "records", "result records merged")
        .set(s.records);
    svc.counter("service", "records_resumed",
                "records recovered from existing spools")
        .set(s.recordsResumed);
    svc.counter("service", "launches", "worker processes forked")
        .set(s.launches);
    svc.counter("service", "retries", "relaunches after a failure")
        .set(s.retries);
    svc.counter("service", "crashes",
                "workers that died on a signal")
        .set(s.crashes);
    svc.counter("service", "exit_failures",
                "workers with a nonzero exit")
        .set(s.exitFailures);
    svc.counter("service", "timeouts", "shards past their deadline")
        .set(s.timeouts);
    svc.counter("service", "sigterms", "timeout SIGTERMs sent")
        .set(s.sigterms);
    svc.counter("service", "sigkills", "escalation SIGKILLs sent")
        .set(s.sigkills);
    svc.counter("service", "torn_tails",
                "partial spool frames truncated")
        .set(s.tornTails);
    svc.counter("service", "bad_records",
                "rejected spool records or files")
        .set(s.badRecords);
    svc.counter("service", "spool_errors",
                "worker spool-write failures")
        .set(s.spoolErrors);
    obs::writeSnapshot(os, svc.snapshot());
    for (const std::string &stem : s.failedShards)
        os << "service.failed_shard " << stem
           << " # points zeroed; rerun with resume=\n";
}

} // namespace sim
} // namespace iraw
