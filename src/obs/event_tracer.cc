#include "obs/event_tracer.hh"

#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <sstream>

namespace iraw {
namespace obs {

double
monotonicSeconds()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t
monotonicMicros()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
           static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

/** Small sequential id per thread (Chrome "tid" field). */
uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id = next.fetch_add(1);
    return id;
}

} // namespace

EventTracer::Arg
EventTracer::arg(const std::string &key, uint64_t value)
{
    return Arg{key, std::to_string(value)};
}

EventTracer::Arg
EventTracer::arg(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    return Arg{key, os.str()};
}

EventTracer::Arg
EventTracer::arg(const std::string &key, const std::string &value)
{
    return Arg{key, jsonQuote(value)};
}

void
EventTracer::record(char ph, const std::string &name,
                    const std::string &cat, uint64_t ts,
                    uint64_t dur, bool hasDur,
                    const std::vector<Arg> &args)
{
    std::string json;
    json.reserve(128);
    json += "{\"name\":";
    json += jsonQuote(name);
    json += ",\"cat\":";
    json += jsonQuote(cat);
    json += ",\"ph\":\"";
    json.push_back(ph);
    json += "\",\"ts\":";
    json += std::to_string(ts);
    if (hasDur) {
        json += ",\"dur\":";
        json += std::to_string(dur);
    }
    json += ",\"pid\":";
    json += std::to_string(static_cast<uint64_t>(::getpid()));
    json += ",\"tid\":";
    json += std::to_string(threadId());
    if (!args.empty()) {
        json += ",\"args\":{";
        for (size_t i = 0; i < args.size(); ++i) {
            if (i)
                json.push_back(',');
            json += jsonQuote(args[i].key);
            json.push_back(':');
            json += args[i].json;
        }
        json.push_back('}');
    }
    json.push_back('}');

    MutexLock lock(_mutex);
    if (_sink)
        _sink(json);
    else
        _events.push_back(std::move(json));
}

void
EventTracer::complete(const std::string &name,
                      const std::string &cat, uint64_t startUs,
                      uint64_t durUs, const std::vector<Arg> &args)
{
    record('X', name, cat, startUs, durUs, true, args);
}

void
EventTracer::instant(const std::string &name, const std::string &cat,
                     const std::vector<Arg> &args)
{
    record('i', name, cat, nowUs(), 0, false, args);
}

void
EventTracer::begin(const std::string &name, const std::string &cat,
                   const std::vector<Arg> &args)
{
    record('B', name, cat, nowUs(), 0, false, args);
}

void
EventTracer::end(const std::string &name, const std::string &cat)
{
    record('E', name, cat, nowUs(), 0, false, {});
}

void
EventTracer::appendEvents(std::vector<std::string> events)
{
    MutexLock lock(_mutex);
    for (std::string &event : events)
        _events.push_back(std::move(event));
}

void
EventTracer::writeChromeTrace(std::ostream &os) const
{
    MutexLock lock(_mutex);
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < _events.size(); ++i) {
        if (i)
            os << ',';
        os << '\n' << _events[i];
    }
    os << "\n]}\n";
}

size_t
EventTracer::eventCount() const
{
    MutexLock lock(_mutex);
    return _events.size();
}

} // namespace obs
} // namespace iraw
