#include "obs/metrics.hh"

#include <algorithm>
#include <iomanip>

#include "common/logging.hh"

namespace iraw {
namespace obs {

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &group,
                              const std::string &name,
                              const std::string &desc, Kind kind)
{
    auto key = std::make_pair(group, name);
    auto it = _index.find(key);
    if (it != _index.end()) {
        Entry &e = *_entries[it->second];
        fatalIf(e.kind != kind,
                "metric %s.%s re-registered with a different kind",
                group.c_str(), name.c_str());
        return e;
    }
    auto entry = std::make_unique<Entry>();
    entry->group = group;
    entry->name = name;
    entry->desc = desc;
    entry->kind = kind;
    _index.emplace(std::move(key), _entries.size());
    _entries.push_back(std::move(entry));
    return *_entries.back();
}

Counter &
MetricsRegistry::counter(const std::string &group,
                         const std::string &name,
                         const std::string &desc)
{
    MutexLock lock(_mutex);
    Entry &e = findOrCreate(group, name, desc, Kind::Counter);
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &group,
                       const std::string &name,
                       const std::string &desc)
{
    MutexLock lock(_mutex);
    Entry &e = findOrCreate(group, name, desc, Kind::Gauge);
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

std::vector<MetricsRegistry::SnapshotEntry>
MetricsRegistry::snapshot(Order order) const
{
    std::vector<SnapshotEntry> out;
    {
        MutexLock lock(_mutex);
        out.reserve(_entries.size());
        std::vector<const Entry *> ordered;
        ordered.reserve(_entries.size());
        for (const auto &e : _entries)
            ordered.push_back(e.get());
        if (order == Order::ByName) {
            std::sort(ordered.begin(), ordered.end(),
                      [](const Entry *a, const Entry *b) {
                          if (a->group != b->group)
                              return a->group < b->group;
                          return a->name < b->name;
                      });
        }
        for (const Entry *e : ordered) {
            SnapshotEntry s;
            s.group = e->group;
            s.name = e->name;
            s.desc = e->desc;
            if (e->kind == Kind::Counter) {
                s.u = e->counter->value();
            } else {
                s.isFloat = true;
                s.d = e->gauge->value();
            }
            out.push_back(std::move(s));
        }
    }
    return out;
}

void
writeSnapshot(
    std::ostream &os,
    const std::vector<MetricsRegistry::SnapshotEntry> &entries)
{
    for (const auto &e : entries) {
        os << e.group << '.' << std::left << std::setw(36) << e.name
           << ' ' << std::right << std::setw(16);
        if (e.isFloat)
            os << e.d;
        else
            os << e.u;
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << '\n';
    }
}

} // namespace obs
} // namespace iraw
