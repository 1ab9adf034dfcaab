/**
 * @file
 * Thread-safe metrics registry and the one flat-report printer.
 *
 * A registry holds named metrics in groups, of two kinds, both
 * lock-free on the update path:
 *  - Counter: a uint64 (atomic add / set), printed exact
 *  - Gauge:   a double level (atomic store)
 *
 * Registration is idempotent — asking for an existing (group, name)
 * returns the same metric — and the registry snapshot is
 * deterministic: Order::Registration replays the exact registration
 * sequence (the order a report prints in), Order::ByName sorts by
 * (group, name) so concurrently registering threads still produce
 * one canonical rendering.
 *
 * Two kinds of registry use it.  The telemetry session's registry
 * holds host-side observations only (perf.* wall time, trace_store.*
 * cache stats, runner.* dedup/chunk accounting, adapt.* transition
 * counts, service.* supervisor accounting), written to stderr/side
 * files, never to stdout (docs/ARCHITECTURE.md, determinism
 * invariant 9).  Every `group.stat` report (sim/stats_report.hh)
 * builds its own registry and prints it with writeSnapshot.
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

/** A uint64 metric; add() or set() from any thread. */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        _value.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Overwrite with an externally folded total (a report line,
     *  or an end-of-run copy of a stats struct's field). */
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

    /** Render every metric as one entry, in @p order. */
    std::vector<SnapshotEntry>
    snapshot(Order order = Order::Registration) const
        EXCLUDES(_mutex);

  private:
    enum class Kind
    {
        Counter,
        Gauge,
    };

    struct Entry
    {
        std::string group;
        std::string name;
        std::string desc;
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
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
 * The one report printer: renders entries in the flat gem5-style
 * stats format, one line each,
 *
 *     <group>.<name padded to 36> <value padded to 16>  # <desc>
 *
 * with the "  # <desc>" tail only when the entry has a description.
 */
void writeSnapshot(
    std::ostream &os,
    const std::vector<MetricsRegistry::SnapshotEntry> &entries);

} // namespace obs
} // namespace iraw

#endif // IRAW_OBS_METRICS_HH
