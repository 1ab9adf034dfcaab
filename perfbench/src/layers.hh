/**
 * @file
 * The traced run: one workload execution with a span per call into a
 * layer, followed by per-layer probes that call each module's public
 * functions on the workload's own inputs.  Prints one JSON object of
 * per-layer metrics and writes the spans as one Chrome trace.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "workloads.hh"

namespace perfbench {

/**
 * Run the traced workload and every layer probe.  @p workDir holds
 * the service probe's spool while it runs.  Returns a process exit
 * code: nonzero when a probe's built-in equivalence check fails.
 */
int runLayers(WorkloadId id, uint64_t seed,
              const std::string &chromeTracePath,
              const std::string &workDir, std::ostream &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
