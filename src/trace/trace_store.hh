/**
 * @file
 * Generate-once trace store for sweeps.
 *
 * A Vcc sweep replays the *same* (workload, seed) instruction stream
 * for every (voltage, machine) point — hundreds of points per sweep.
 * Regenerating the synthetic trace per point wastes most of the hot
 * path, so the store materializes each distinct trace exactly once
 * into an immutable, shareable buffer of decoded micro-ops and hands
 * concurrent sweep workers a cheap cursor (ReplayTraceSource) over
 * it:
 *
 *  - generation is once-per-key and thread-safe: the first worker to
 *    request a key materializes it, later workers block only until
 *    that first materialization finishes;
 *  - the resident footprint (records x sizeof(isa::MicroOp)) is
 *    bounded by an LRU byte cap (evicted buffers stay alive for
 *    workers still holding them — eviction only drops the store's
 *    reference);
 *  - an optional disk layer round-trips buffers through the
 *    TraceWriter/TraceReader binary format, so traces persist across
 *    processes and real-workload trace files plug in as scenarios.
 *    Records are packed only there, at the file boundary.
 */

#ifndef IRAW_TRACE_TRACE_STORE_HH
#define IRAW_TRACE_TRACE_STORE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "trace/trace_source.hh"
#include "trace/workload.hh"

namespace iraw {

namespace obs {
class EventTracer;
}

namespace trace {

/**
 * An immutable trace: the decoded micro-ops the pipeline replays, held
 * once and shared by every cursor over it.  The 38-byte packed record
 * (trace/trace_record.hh) is the file format only; in memory each op
 * costs sizeof(isa::MicroOp).
 */
class TraceBuffer
{
  public:
    TraceBuffer(std::string name, std::vector<isa::MicroOp> ops);

    /** Record count. */
    uint64_t records() const { return _ops.size(); }
    /** Resident footprint in bytes: what the store's byte cap bounds. */
    uint64_t bytes() const { return _ops.size() * sizeof(isa::MicroOp); }
    const std::string &name() const { return _name; }

    /** Record @p index (must be < records()). */
    const isa::MicroOp &at(uint64_t index) const;

    /** The micro-ops; the array is stable for the buffer's lifetime. */
    const isa::MicroOp *ops() const { return _ops.data(); }

  private:
    std::string _name;
    std::vector<isa::MicroOp> _ops;
};

using TraceBufferPtr = std::shared_ptr<const TraceBuffer>;

/** A cheap per-worker cursor over a shared TraceBuffer. */
class ReplayTraceSource : public TraceSource
{
  public:
    explicit ReplayTraceSource(TraceBufferPtr buffer);

    std::optional<isa::MicroOp> next() override;
    void reset() override;
    std::string name() const override;
    ReplayTraceSource *replay() override { return this; }

    /**
     * Zero-copy cursor step: a pointer to the next decoded micro-op
     * (stable for the buffer's lifetime), or null at end of trace.
     * Shares its position with next(), so the two can be mixed.
     */
    const isa::MicroOp *
    take()
    {
        if (_pos >= _count)
            return nullptr;
        return _ops + _pos++;
    }

    const TraceBufferPtr &buffer() const { return _buffer; }

  private:
    TraceBufferPtr _buffer;
    const isa::MicroOp *_ops = nullptr;
    uint64_t _count = 0;
    uint64_t _pos = 0;
};

/**
 * Micro-ops to materialize so a bounded replay is indistinguishable
 * from an unbounded live generator: the pipeline consumes at most
 * the commit budget plus whatever fits in flight (IQ entries + the
 * fetch lookahead), so this margin guarantees the replay never hits
 * end-of-trace — and its drain-NOP path — before the run completes.
 */
inline uint64_t
replayLength(uint64_t instBudget, uint32_t iqEntries)
{
    return instBudget + iqEntries + 64;
}

/** Materialize @p length micro-ops of the synthetic generator. */
TraceBufferPtr materializeSynthetic(const WorkloadProfile &profile,
                                    uint64_t seed, uint64_t length);

/** Load a whole binary trace file into a buffer. */
TraceBufferPtr materializeFile(const std::string &path);

/**
 * Thread-safe, LRU-bounded cache of materialized traces keyed by
 * (source, seed, length).
 */
class TraceStore
{
  public:
    struct Config
    {
        /** In-memory footprint bound; at least one buffer is kept. */
        uint64_t byteCap = 256ull << 20;
        /** Disk-cache directory; empty disables the disk layer. */
        std::string diskDir;
    };

    struct Stats
    {
        uint64_t hits = 0;     //!< acquisitions served from memory
        uint64_t misses = 0;   //!< acquisitions that materialized
        uint64_t diskHits = 0; //!< misses served from the disk layer
        /** Corrupt/truncated disk-cache files deleted on read. */
        uint64_t diskBadFiles = 0;
        /** Stale write-temporaries swept at construction. */
        uint64_t staleTmpFiles = 0;
        uint64_t evictions = 0;
        uint64_t buffers = 0;    //!< resident buffer count
        uint64_t bytesInUse = 0; //!< resident payload bytes
        uint64_t byteCap = 0;
    };

    TraceStore();
    explicit TraceStore(Config cfg);

    /**
     * The trace of (profile, seed) truncated at @p length micro-ops.
     * Profiles are identified by name, so distinct profiles must be
     * distinctly named.
     */
    TraceBufferPtr acquireSynthetic(const WorkloadProfile &profile,
                                    uint64_t seed, uint64_t length)
        EXCLUDES(_mutex);

    /** The full contents of trace file @p path. */
    TraceBufferPtr acquireFile(const std::string &path)
        EXCLUDES(_mutex);

    Stats stats() const EXCLUDES(_mutex);

    const Config &config() const { return _cfg; }

    /**
     * Record a `trace.materialize` span on @p tracer for every
     * owner-path materialization (the `chrometrace=` option).  Must
     * be set before concurrent acquisition starts; the store never
     * writes through it on the hit path.
     */
    void
    setTracer(std::shared_ptr<obs::EventTracer> tracer)
    {
        _tracer = std::move(tracer);
    }

  private:
    struct Key
    {
        std::string source; //!< "synth:<profile>" or "file:<path>"
        uint64_t seed = 0;
        uint64_t length = 0;

        bool
        operator<(const Key &o) const
        {
            if (source != o.source)
                return source < o.source;
            if (seed != o.seed)
                return seed < o.seed;
            return length < o.length;
        }
    };

    struct Entry
    {
        std::shared_future<TraceBufferPtr> future;
        uint64_t bytes = 0;
        bool ready = false;
        std::list<Key>::iterator lruIt{};
    };

    /**
     * Once-per-key materialization (double-checked through the
     * entry's shared_future, not through a naked pointer): the
     * registration of the promise happens under _mutex, the heavy
     * materialize() runs outside it, and waiters synchronize on the
     * future — promise::set_value is the release, future::get the
     * acquire, so the buffer's bytes happen-before every reader.
     */
    TraceBufferPtr
    acquire(const Key &key,
            const std::function<TraceBufferPtr()> &materialize)
        EXCLUDES(_mutex);
    /** Account a finished materialization and enforce the byte cap. */
    void finalize(const Key &key, const TraceBufferPtr &buffer)
        EXCLUDES(_mutex);
    std::string diskPathFor(const Key &key) const;

    Config _cfg;
    /** Set once before workers run (see setTracer); read-only after. */
    std::shared_ptr<obs::EventTracer> _tracer;
    mutable Mutex _mutex;
    /**
     * Key -> in-flight-or-ready buffer.  An entry enters _lru only
     * when finalize() marks it ready, so eviction can never drop a
     * key some owner is still materializing.
     */
    std::map<Key, Entry> _entries GUARDED_BY(_mutex);
    std::list<Key> _lru GUARDED_BY(_mutex); //!< front = most recent
    Stats _stats GUARDED_BY(_mutex);
};

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_TRACE_STORE_HH
