/**
 * @file
 * Chrome trace-event recorder (`chrometrace=out.json`).
 *
 * Records host-side timeline events — sweep chunks, trace
 * materialization, adapt epochs/drain/settle windows, service shard
 * lifecycle — and renders them in the Chrome trace-event JSON format
 * (load the file in Perfetto or chrome://tracing).  Timestamps come
 * from CLOCK_MONOTONIC, which on Linux is system-wide: events
 * recorded in forked service workers stitch onto the supervisor's
 * timeline with no clock translation.
 *
 * Events accumulate in memory under a mutex and are rendered by
 * writeChromeTrace().  A tracer built with a sink hands each event to
 * it instead, as soon as it is rendered: a forked service worker's
 * sink frames it onto a crash-safe spool (src/service/spool.*), and
 * the supervisor merges the spool's payloads back with
 * appendEvents().
 *
 * Everything here is observational: tracing never touches stdout or
 * simulated state (docs/ARCHITECTURE.md, determinism invariant 9).
 */

#ifndef IRAW_OBS_EVENT_TRACER_HH
#define IRAW_OBS_EVENT_TRACER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.hh"

namespace iraw {
namespace obs {

/**
 * CLOCK_MONOTONIC now, in seconds / microseconds.  These are the
 * only clock accessors layers outside src/obs/ should call for
 * host-side measurement (the `obs-only-wallclock` lint rule bans
 * direct clock reads elsewhere).
 */
double monotonicSeconds();
uint64_t monotonicMicros();

/** JSON string literal (quotes + escapes) for @p s. */
std::string jsonQuote(const std::string &s);

class EventTracer
{
  public:
    /** One pre-rendered event argument: key plus JSON value text. */
    struct Arg
    {
        std::string key;
        std::string json;
    };

    static Arg arg(const std::string &key, uint64_t value);
    static Arg arg(const std::string &key, double value);
    static Arg arg(const std::string &key, const std::string &value);

    /** Narrower integral counters widen to the uint64_t overload
     *  (callers pass uint32_t cycle counts and int indices). */
    template <typename T,
              typename std::enable_if<std::is_integral<T>::value,
                                      int>::type = 0>
    static Arg
    arg(const std::string &key, T value)
    {
        return arg(key, static_cast<uint64_t>(value));
    }

    /** Where a tracer built with one sends each rendered event. */
    using Sink = std::function<void(const std::string &event)>;

    EventTracer() = default;
    /** Hand every event to @p sink (called under the tracer's
     *  mutex, so one call at a time) instead of keeping it. */
    explicit EventTracer(Sink sink) : _sink(std::move(sink)) {}
    EventTracer(const EventTracer &) = delete;
    EventTracer &operator=(const EventTracer &) = delete;

    /** Event-clock now (µs since the monotonic epoch). */
    uint64_t
    nowUs() const
    {
        return monotonicMicros();
    }

    /** Complete event (ph "X"): a [startUs, startUs+durUs] slice. */
    void complete(const std::string &name, const std::string &cat,
                  uint64_t startUs, uint64_t durUs,
                  const std::vector<Arg> &args = {})
        EXCLUDES(_mutex);

    /** Instant event (ph "i"). */
    void instant(const std::string &name, const std::string &cat,
                 const std::vector<Arg> &args = {}) EXCLUDES(_mutex);

    /** Duration begin/end pair (ph "B"/"E"); prefer Span (RAII). */
    void begin(const std::string &name, const std::string &cat,
               const std::vector<Arg> &args = {}) EXCLUDES(_mutex);
    void end(const std::string &name, const std::string &cat)
        EXCLUDES(_mutex);

    /** RAII B/E bracket on one tracer (null tracer: no-op). */
    class Span
    {
      public:
        Span(EventTracer *tracer, std::string name, std::string cat)
            : _tracer(tracer), _name(std::move(name)),
              _cat(std::move(cat))
        {
            if (_tracer)
                _tracer->begin(_name, _cat);
        }
        ~Span()
        {
            if (_tracer)
                _tracer->end(_name, _cat);
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        EventTracer *_tracer;
        std::string _name;
        std::string _cat;
    };

    /** Append pre-rendered events, such as a worker's spooled
     *  ones, to this tracer's timeline. */
    void appendEvents(std::vector<std::string> events) EXCLUDES(_mutex);

    /** Render the whole timeline as Chrome trace-event JSON. */
    void writeChromeTrace(std::ostream &os) const EXCLUDES(_mutex);

    size_t eventCount() const EXCLUDES(_mutex);

  private:
    void record(char ph, const std::string &name,
                const std::string &cat, uint64_t ts, uint64_t dur,
                bool hasDur, const std::vector<Arg> &args)
        EXCLUDES(_mutex);

    Sink _sink;
    mutable Mutex _mutex;
    /** Pre-rendered JSON objects, one per event. */
    std::vector<std::string> _events GUARDED_BY(_mutex);
};

} // namespace obs
} // namespace iraw

#endif // IRAW_OBS_EVENT_TRACER_HH
