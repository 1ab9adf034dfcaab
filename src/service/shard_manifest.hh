/**
 * @file
 * Deterministic shard decomposition for the sharded experiment
 * service.
 *
 * A service call's config vector is decomposed with EXACTLY the
 * trace-grouped chunking `SweepRunner::runConfigs` uses for its
 * in-process work items (sim::traceGroupedChunks), so a shard is the
 * same unit of work either way, and its configs run one by one
 * through Simulator::run just as in-process, so the sharded results
 * are bitwise identical to the in-process ones (invariant 8).
 *
 * Shards are *content-addressed*: each shard's spool file name
 * carries an FNV-1a fingerprint of every result-affecting field of
 * every config in the shard (machine, workload, seed, budget, Vcc,
 * chip identity, adapt policy, ...) and of the bytes of every trace=
 * file the shard replays.  A resumed run rebuilds the
 * manifest from its own configs and simply looks the fingerprints up
 * on disk — if anything about the experiment changed, the names
 * miss and the shards rerun; stale spools can never be merged into
 * the wrong sweep.  The call ordinal keeps repeated identical calls
 * within one scenario (e.g. the same grid swept twice) from
 * colliding on a file name.
 */

#ifndef IRAW_SERVICE_SHARD_MANIFEST_HH
#define IRAW_SERVICE_SHARD_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hh"

namespace iraw {
namespace service {

/**
 * FNV-1a fingerprint of every SimConfig field that can reach the
 * result: core + memory machine parameters (including the latency
 * table), workload/trace identity, instruction budgets, operating
 * point, chip-sample identity and adapt-controller parameters.
 */
uint64_t configFingerprint(const sim::SimConfig &cfg);

/** One unit of supervised work: one trace-grouped chunk of configs. */
struct Shard
{
    /** Positions in the service call's config vector. */
    std::vector<size_t> indices;
    /** Combined content fingerprint of the shard's configs. */
    uint64_t hash = 0;
    /** Position in the manifest (fixed merge order). */
    size_t ordinal = 0;
    /** Spool file stem: `shard-<call>-<ordinal>-<hash>`. */
    std::string stem;
};

/** The full, ordered decomposition of one service call. */
struct ShardManifest
{
    std::vector<Shard> shards;
};

/** In-progress spool path: `<dir>/<stem>.jsonl.part`. */
std::string partPath(const std::string &dir, const Shard &shard);

/** Completed spool path: `<dir>/<stem>.jsonl`. */
std::string donePath(const std::string &dir, const Shard &shard);

/**
 * Decompose @p configs into shards of at most @p chunkSize configs,
 * grouped by trace identity exactly like the in-process runner.
 * @p callOrdinal distinguishes repeated runConfigs calls within one
 * scenario session.
 */
ShardManifest buildManifest(const std::vector<sim::SimConfig> &configs,
                            size_t chunkSize, uint64_t callOrdinal);

} // namespace service
} // namespace iraw

#endif // IRAW_SERVICE_SHARD_MANIFEST_HH
