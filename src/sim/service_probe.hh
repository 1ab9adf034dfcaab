/**
 * @file
 * Service-overhead probe: times one wave of configs executed by the
 * in-process thread pool and by the sharded multi-process supervisor
 * (fork + spool + merge), plus a resume pass over the finished
 * spools (a pure scan/decode, no workers forked).  The bench
 * drivers surface the numbers as the `service` /
 * `service_overhead` blocks of their BENCH_*.json artifacts, so the
 * supervisor's wall cost is tracked run over run like every other
 * perf trajectory.
 *
 * The probe double-checks determinism invariant 8 while it measures:
 * the sharded wave's simulated results must be bitwise identical to
 * the in-process wave's.
 */

#ifndef IRAW_SIM_SERVICE_PROBE_HH
#define IRAW_SIM_SERVICE_PROBE_HH

#include <cstdint>
#include <vector>

#include "sim/simulation.hh"

namespace iraw {
namespace sim {

/** Wall timings and spool footprint of one probed wave. */
struct ServiceOverheadResult
{
    unsigned workers = 0;
    uint64_t shards = 0;
    /** Bytes of completed spool files the sharded wave wrote. */
    uint64_t spoolBytes = 0;
    double inprocessSeconds = 0.0;
    double shardedSeconds = 0.0;
    /** Resume over the finished spools: scan + decode + merge. */
    double resumeScanSeconds = 0.0;

    /** Sharded wall time over in-process wall time (>= 1 expected:
     *  fork/spool/merge on top of the same simulation work). */
    double
    overheadRatio() const
    {
        return inprocessSeconds > 0.0
                   ? shardedSeconds / inprocessSeconds
                   : 0.0;
    }
};

/**
 * Run @p configs three ways — in-process pool of @p workers threads,
 * sharded supervisor with @p workers processes, resume over the
 * sharded wave's spools — under a throwaway spool directory that is
 * removed before returning.  Panics if the sharded results diverge
 * from the in-process ones.
 */
ServiceOverheadResult
probeServiceOverhead(const Simulator &sim,
                     const std::vector<SimConfig> &configs,
                     size_t chunkSize, unsigned workers);

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_SERVICE_PROBE_HH
