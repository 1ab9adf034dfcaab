#include "spans.hh"

#include <chrono>
#include <fstream>

#include "obs/event_tracer.hh"

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
SpanLog::open(const std::string &name)
{
    Span span;
    span.name = name;
    span.parent = _open.empty() ? -1 : _open.back();
    span.startNs = nowNs();
    _spans.push_back(span);
    _open.push_back(static_cast<int>(_spans.size()) - 1);
    return _open.back();
}

void
SpanLog::close(int id)
{
    _spans[static_cast<size_t>(id)].endNs = nowNs();
    if (!_open.empty() && _open.back() == id)
        _open.pop_back();
}

void
SpanLog::add(const std::string &name, uint64_t startNs,
             uint64_t endNs)
{
    Span span;
    span.name = name;
    span.parent = _open.empty() ? -1 : _open.back();
    span.startNs = startNs;
    span.endNs = endNs;
    _spans.push_back(span);
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    iraw::obs::EventTracer tracer;
    for (const Span &s : _spans) {
        const std::string parent =
            s.parent < 0 ? ""
                         : _spans[static_cast<size_t>(s.parent)].name;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        tracer.complete(s.name, layer, s.startNs / 1000,
                        (s.endNs - s.startNs) / 1000,
                        {iraw::obs::EventTracer::arg("parent", parent)});
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    tracer.writeChromeTrace(out);
    return static_cast<bool>(out);
}

Scope::Scope(SpanLog *log, const std::string &name)
    : _log(log), _startNs(nowNs())
{
    if (_log)
        _id = _log->open(name);
}

Scope::~Scope()
{
    if (_log)
        _log->close(_id);
}

double
Scope::seconds() const
{
    return static_cast<double>(nowNs() - _startNs) * 1e-9;
}

} // namespace perfbench
