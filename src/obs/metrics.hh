/**
 * @file
 * Thread-safe metrics registry: the one home for every host-side
 * counter the simulator exposes (perf.* wall time, trace_store.*
 * cache stats, runner.* dedup/chunk accounting, adapt.* transition
 * counts, service.* supervisor accounting).
 *
 * Three metric kinds, all lock-free on the update path:
 *  - Counter:   monotonically written uint64 (atomic add / set)
 *  - Gauge:     a double level (atomic store)
 *  - Histogram: fixed-bucket int64 samples (same edge semantics as
 *               stats::Histogram: inclusive [min, max], under/
 *               overflow tracked separately)
 *
 * Registration is idempotent — asking for an existing (group, name)
 * returns the same metric — and the registry snapshot is
 * deterministic: Order::Registration replays the exact registration
 * sequence (what the legacy report printers need for byte-identical
 * output), Order::ByName sorts by (group, name) so concurrently
 * registering threads still produce one canonical rendering.
 *
 * Everything simulated stays out of here by construction: metrics
 * are host-side observations only, written to stderr/side files,
 * never to stdout (docs/ARCHITECTURE.md, determinism invariant 9).
 */

#ifndef IRAW_OBS_METRICS_HH
#define IRAW_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"

namespace iraw {
namespace obs {

/** Monotonic uint64 metric; add() from any thread. */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        _value.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Overwrite with an externally folded total (end-of-run
     *  mirroring of legacy stats structs). */
    void
    set(uint64_t value)
    {
        _value.store(value, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> _value{0};
};

/** A double level; set() from any thread. */
class Gauge
{
  public:
    void
    set(double value)
    {
        _value.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * Fixed-bucket histogram over inclusive [min, max]; values outside
 * land in underflow/overflow.  sample() is wait-free (independent
 * relaxed atomics), so a snapshot taken concurrently with samplers
 * may be torn across fields — deterministic snapshots are taken
 * after the sampling threads join, like every other metric here.
 */
class Histogram
{
  public:
    Histogram(int64_t min, int64_t max, int64_t bucketSize);

    void sample(int64_t value);

    uint64_t
    count() const
    {
        return _count.load(std::memory_order_relaxed);
    }
    int64_t
    sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }
    uint64_t
    underflow() const
    {
        return _underflow.load(std::memory_order_relaxed);
    }
    uint64_t
    overflow() const
    {
        return _overflow.load(std::memory_order_relaxed);
    }

    /** In-range sample mean; 0 when empty. */
    double mean() const;

    size_t
    numBuckets() const
    {
        return _buckets.size();
    }
    /** Lowest value belonging to bucket @p i. */
    int64_t
    bucketLow(size_t i) const
    {
        return _min + static_cast<int64_t>(i) * _bucketSize;
    }
    uint64_t
    bucketCount(size_t i) const
    {
        return _buckets[i].load(std::memory_order_relaxed);
    }

  private:
    int64_t _min;
    int64_t _bucketSize;
    std::vector<std::atomic<uint64_t>> _buckets;
    std::atomic<uint64_t> _count{0};
    std::atomic<int64_t> _sum{0};
    std::atomic<uint64_t> _underflow{0};
    std::atomic<uint64_t> _overflow{0};
};

/**
 * The registry: named metrics in groups, deterministic snapshots.
 * Registration takes the mutex; updates through the returned
 * references are lock-free.  Returned references stay valid for the
 * registry's lifetime (metrics are never removed).
 */
class MetricsRegistry
{
  public:
    enum class Order
    {
        Registration, //!< exact registration sequence
        ByName,       //!< sorted by (group, name)
    };

    /** One rendered metric line: either a uint64 or a double. */
    struct SnapshotEntry
    {
        std::string group;
        std::string name;
        std::string desc;
        bool isFloat = false;
        uint64_t u = 0;
        double d = 0.0;
    };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &group,
                     const std::string &name,
                     const std::string &desc = "") EXCLUDES(_mutex);

    Gauge &gauge(const std::string &group, const std::string &name,
                 const std::string &desc = "") EXCLUDES(_mutex);

    Histogram &histogram(const std::string &group,
                         const std::string &name,
                         const std::string &desc, int64_t min,
                         int64_t max, int64_t bucketSize = 1)
        EXCLUDES(_mutex);

    /**
     * Render every metric to value entries.  Histograms expand to
     * two entries, `<name>.samples` and `<name>.mean` (matching the
     * legacy stats::Histogram report shape).
     */
    std::vector<SnapshotEntry>
    snapshot(Order order = Order::Registration) const
        EXCLUDES(_mutex);

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    struct Entry
    {
        std::string group;
        std::string name;
        std::string desc;
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &findOrCreate(const std::string &group,
                        const std::string &name,
                        const std::string &desc, Kind kind)
        REQUIRES(_mutex);

    mutable Mutex _mutex;
    std::vector<std::unique_ptr<Entry>> _entries GUARDED_BY(_mutex);
    std::map<std::pair<std::string, std::string>, size_t> _index
        GUARDED_BY(_mutex);
};

/**
 * The one snapshot printer: renders entries in the classic stats
 * report format
 *
 *     <group>.<name padded to 36>  <value padded to 16>  # <desc>
 *
 * byte-identical to what stats::Group::dump and the legacy
 * writeServiceReport/writeTraceStoreReport printers emitted.
 */
void writeSnapshot(
    std::ostream &os,
    const std::vector<MetricsRegistry::SnapshotEntry> &entries);

} // namespace obs
} // namespace iraw

#endif // IRAW_OBS_METRICS_HH
