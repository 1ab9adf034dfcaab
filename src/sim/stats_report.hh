/**
 * @file
 * gem5-style statistics reporting: renders a SimResult as a flat
 * "group.stat value # description" listing (the format downstream
 * tooling expects from simulators).  Every report registers its lines
 * in print order on an obs::MetricsRegistry and prints through
 * obs::writeSnapshot, the one report printer.
 */

#ifndef IRAW_SIM_STATS_REPORT_HH
#define IRAW_SIM_STATS_REPORT_HH

#include <ostream>

#include "sim/simulation.hh"

namespace iraw {

namespace obs {
class MetricsRegistry;
}
namespace variation {
struct PopulationResult;
}
namespace service {
struct ServiceStats;
}

namespace sim {

/**
 * Write a full statistics dump for one simulation run.
 * Sections: run configuration, pipeline, IRAW mechanisms, memory,
 * predictor, timing/performance.
 */
void writeStatsReport(std::ostream &os, const SimResult &result);

/**
 * Dump a chip population's yield aggregates as a flat `variation.*`
 * group.  Only the population scenarios call this (and
 * writeStatsReport only emits its per-run variation group when a
 * chip sample was attached), so every nominal output stays
 * byte-identical.
 */
void writeVariationReport(std::ostream &os,
                          const variation::PopulationResult &result);

/**
 * Dump the sharded experiment service's accounting as a flat
 * `service.*` group, followed by one `service.failed_shard` line per
 * shard that exhausted its retries.  The scenario driver writes this
 * to STDERR: it is host-side operational telemetry, and keeping it
 * off stdout is what keeps a sharded scenario's report byte-identical
 * to the in-process run (determinism invariant 8).
 */
void writeServiceReport(std::ostream &os,
                        const service::ServiceStats &stats);

/**
 * Register the trace store's counters (hits, misses, evictions,
 * resident bytes, ...) as the `trace_store.*` group of
 * @p registry.
 */
void addTraceStoreMetrics(obs::MetricsRegistry &registry,
                          const trace::TraceStore::Stats &stats);

/** Register the service accounting as the `service.*` group of
 *  @p registry (writeServiceReport prints the same lines). */
void addServiceMetrics(obs::MetricsRegistry &registry,
                       const service::ServiceStats &stats);

} // namespace sim
} // namespace iraw

#endif // IRAW_SIM_STATS_REPORT_HH
