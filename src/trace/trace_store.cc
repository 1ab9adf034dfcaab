#include "trace/trace_store.hh"

#include <signal.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "obs/event_tracer.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace iraw {
namespace trace {

namespace fs = std::filesystem;

TraceBuffer::TraceBuffer(std::string name, std::vector<isa::MicroOp> ops)
    : _name(std::move(name)), _ops(std::move(ops))
{
}

const isa::MicroOp &
TraceBuffer::at(uint64_t index) const
{
    panicIf(index >= _ops.size(),
            "TraceBuffer '%s': record %llu out of range",
            _name.c_str(), static_cast<unsigned long long>(index));
    return _ops[index];
}

ReplayTraceSource::ReplayTraceSource(TraceBufferPtr buffer)
    : _buffer(std::move(buffer))
{
    panicIf(!_buffer, "ReplayTraceSource: null buffer");
    _ops = _buffer->ops();
    _count = _buffer->records();
}

std::optional<isa::MicroOp>
ReplayTraceSource::next()
{
    const isa::MicroOp *op = take();
    if (!op)
        return std::nullopt;
    return *op;
}

void
ReplayTraceSource::reset()
{
    _pos = 0;
}

std::string
ReplayTraceSource::name() const
{
    return _buffer->name();
}

TraceBufferPtr
materializeSynthetic(const WorkloadProfile &profile, uint64_t seed,
                     uint64_t length)
{
    fatalIf(length == 0, "materializeSynthetic: zero length");
    SyntheticTraceGenerator gen(profile, seed, length);
    std::vector<isa::MicroOp> ops;
    ops.reserve(length);
    while (auto op = gen.next())
        ops.push_back(*op);
    return std::make_shared<TraceBuffer>(gen.name(), std::move(ops));
}

TraceBufferPtr
materializeFile(const std::string &path)
{
    TraceReader reader(path);
    std::vector<isa::MicroOp> ops;
    ops.reserve(reader.recordCount());
    while (auto op = reader.next())
        ops.push_back(*op);
    return std::make_shared<TraceBuffer>(reader.name(), std::move(ops));
}

namespace {

/**
 * Content fingerprint of a synthetic trace's inputs: every profile
 * parameter (bit-exact) plus the generator algorithm version.
 * Folded into the store key so a persistent disk cache is
 * invalidated when the workload model changes, not silently
 * replayed stale.
 */
std::string
profileFingerprint(const WorkloadProfile &p)
{
    std::string blob = std::to_string(kGeneratorVersion);
    blob += '|';
    blob += p.name;
    auto addU = [&blob](uint64_t v) {
        blob += ',';
        blob += std::to_string(v);
    };
    auto addD = [&addU](double v) {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        addU(bits);
    };
    addD(p.wIntAlu);
    addD(p.wIntMul);
    addD(p.wIntDiv);
    addD(p.wFpAdd);
    addD(p.wFpMul);
    addD(p.wFpDiv);
    addD(p.wLoad);
    addD(p.wStore);
    addD(p.wBranch);
    addD(p.wCall);
    addD(p.depDistGeomP);
    addD(p.secondSrcProb);
    addD(p.freshSrcProb);
    addU(p.staticBranchSites);
    addD(p.stronglyBiasedFraction);
    addD(p.weakBias);
    addU(p.footprintLog2);
    addD(p.streamingFraction);
    addD(p.storeForwardProb);
    addD(p.hotProb);
    addD(p.warmProb);
    addU(p.hotBytesLog2);
    addU(p.warmBytesLog2);
    addU(p.staticCodeInsts);
    addU(p.minFunctionBody);
    addU(p.maxFunctionBody);
    return std::to_string(std::hash<std::string>{}(blob));
}

} // namespace

TraceStore::TraceStore() : TraceStore(Config()) {}

namespace {

/**
 * Whether @p name is a write-temporary left behind by a crashed
 * writer.  Temporaries are "<key>.trc.tmp.<pid>"; one is *stale*
 * when its owning process is gone (or the suffix does not even
 * parse as a pid).  Live temporaries from concurrent processes
 * sharing the cache directory are left alone — deleting one would
 * break that writer's publish rename.
 */
bool
isStaleTmp(const std::string &name)
{
    const std::string marker = ".trc.tmp.";
    size_t pos = name.rfind(marker);
    if (pos == std::string::npos)
        return false;
    const std::string suffix = name.substr(pos + marker.size());
    if (suffix.empty())
        return true;
    char *end = nullptr;
    errno = 0;
    unsigned long long pid = std::strtoull(suffix.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || pid == 0 ||
        pid > static_cast<unsigned long long>(
                  std::numeric_limits<pid_t>::max()))
        return true;
    // Probe liveness without signalling.  EPERM means "alive but
    // not ours" -- keep; only a definitely-dead owner makes the
    // temporary stale.
    return ::kill(static_cast<pid_t>(pid), 0) == -1 &&
           errno == ESRCH;
}

} // namespace

TraceStore::TraceStore(Config cfg) : _cfg(std::move(cfg))
{
    _stats.byteCap = _cfg.byteCap;
    if (!_cfg.diskDir.empty()) {
        std::error_code ec;
        fs::create_directories(_cfg.diskDir, ec);
        fatalIf(static_cast<bool>(ec),
                "TraceStore: cannot create disk cache dir '%s': %s",
                _cfg.diskDir.c_str(), ec.message().c_str());

        // Sweep temporaries orphaned by crashed writers.  They can
        // never be published (the rename died with their owner), so
        // left alone they accumulate forever.
        for (const fs::directory_entry &entry :
             fs::directory_iterator(_cfg.diskDir, ec)) {
            if (ec)
                break;
            if (!entry.is_regular_file(ec))
                continue;
            const std::string name = entry.path().filename();
            if (!isStaleTmp(name))
                continue;
            std::error_code rec;
            if (fs::remove(entry.path(), rec) && !rec) {
                ++_stats.staleTmpFiles;
                warn("TraceStore: removed stale temporary '%s'",
                     entry.path().c_str());
            }
        }
    }
}

std::string
TraceStore::diskPathFor(const Key &key) const
{
    // Human-readable stem plus a hash of the exact source string, so
    // sanitizing can never alias two keys onto one file.
    std::string stem;
    stem.reserve(key.source.size());
    for (char c : key.source)
        stem += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                    ? c
                    : '_';
    size_t h = std::hash<std::string>{}(key.source);
    return _cfg.diskDir + "/" + stem + "_s" +
           std::to_string(key.seed) + "_n" +
           std::to_string(key.length) + "_h" + std::to_string(h) +
           ".v" + std::to_string(kTraceVersion) + ".trc";
}

TraceBufferPtr
TraceStore::acquire(const Key &key,
                    const std::function<TraceBufferPtr()> &materialize)
{
    std::promise<TraceBufferPtr> promise;
    std::shared_future<TraceBufferPtr> future;
    bool owner = false;
    {
        MutexLock lock(_mutex);
        auto it = _entries.find(key);
        if (it != _entries.end()) {
            ++_stats.hits;
            if (it->second.ready)
                _lru.splice(_lru.begin(), _lru, it->second.lruIt);
            future = it->second.future;
        } else {
            ++_stats.misses;
            owner = true;
            Entry entry;
            entry.future = promise.get_future().share();
            future = entry.future;
            _entries.emplace(key, std::move(entry));
        }
    }

    if (owner) {
        // Materialize outside the lock: workers needing other keys
        // proceed; workers needing this key block on the future.
        try {
            obs::EventTracer *tracer = _tracer.get();
            const uint64_t startUs = tracer ? tracer->nowUs() : 0;
            TraceBufferPtr buffer = materialize();
            if (tracer)
                tracer->complete(
                    "trace.materialize", "trace", startUs,
                    tracer->nowUs() - startUs,
                    {obs::EventTracer::arg("key", key.source),
                     obs::EventTracer::arg("length", key.length),
                     obs::EventTracer::arg("bytes",
                                           buffer->bytes())});
            finalize(key, buffer);
            promise.set_value(std::move(buffer));
        } catch (...) {
            {
                MutexLock lock(_mutex);
                _entries.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

void
TraceStore::finalize(const Key &key, const TraceBufferPtr &buffer)
{
    MutexLock lock(_mutex);
    auto it = _entries.find(key);
    panicIf(it == _entries.end(),
            "TraceStore: finalizing an evicted key");
    _lru.push_front(key);
    it->second.lruIt = _lru.begin();
    it->second.bytes = buffer->bytes();
    it->second.ready = true;
    _stats.bytesInUse += buffer->bytes();
    _stats.buffers = _entries.size();

    // Evict from the cold end; the newly finalized buffer (at the
    // front) survives even when it alone exceeds the cap, so a
    // too-small cap degrades to "no reuse", never to failure.
    while (_stats.bytesInUse > _cfg.byteCap && _lru.size() > 1) {
        const Key victim = _lru.back();
        auto vit = _entries.find(victim);
        panicIf(vit == _entries.end(),
                "TraceStore: LRU entry without a map entry");
        _stats.bytesInUse -= vit->second.bytes;
        ++_stats.evictions;
        _entries.erase(vit);
        _lru.pop_back();
    }
    _stats.buffers = _entries.size();
}

TraceBufferPtr
TraceStore::acquireSynthetic(const WorkloadProfile &profile,
                             uint64_t seed, uint64_t length)
{
    Key key{"synth:" + profile.name + "@" +
                profileFingerprint(profile),
            seed, length};
    return acquire(key, [this, &key, &profile, seed, length] {
        if (_cfg.diskDir.empty())
            return materializeSynthetic(profile, seed, length);

        const std::string path = diskPathFor(key);
        if (fs::exists(path)) {
            try {
                TraceBufferPtr buffer = materializeFile(path);
                MutexLock lock(_mutex);
                ++_stats.diskHits;
                return buffer;
            } catch (const FatalError &e) {
                // A truncated/corrupt cache file (crash, disk
                // error) must not brick the run.  Delete it -- not
                // just skip it -- so a reader that loses the
                // regeneration race below can never load the bad
                // bytes, and so a permanently-failing file does not
                // re-warn on every process start.
                warn("TraceStore: deleting bad cache file '%s' "
                     "(%s); regenerating",
                     path.c_str(), e.what());
                std::error_code ec;
                fs::remove(path, ec);
                MutexLock lock(_mutex);
                ++_stats.diskBadFiles;
            }
        }

        TraceBufferPtr buffer =
            materializeSynthetic(profile, seed, length);
        // Write-then-rename so concurrent processes sharing the
        // cache directory never observe a half-written trace.  The
        // cache only saves regeneration, so a failed publish
        // (unwritable directory, full disk) warns, drops the
        // temporary and keeps the trace already in hand.
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        std::string error;
        try {
            TraceWriter writer(tmp);
            const isa::MicroOp *ops = buffer->ops();
            for (uint64_t i = 0; i < buffer->records(); ++i)
                writer.append(ops[i]);
            writer.close();
            std::error_code ec;
            fs::rename(tmp, path, ec);
            if (ec)
                error = ec.message();
        } catch (const FatalError &e) {
            error = e.what();
        }
        if (!error.empty()) {
            warn("TraceStore: cannot publish '%s': %s", path.c_str(),
                 error.c_str());
            std::error_code ec;
            fs::remove(tmp, ec);
        }
        return buffer;
    });
}

TraceBufferPtr
TraceStore::acquireFile(const std::string &path)
{
    // File traces are already on disk; only the in-memory layer
    // applies.
    Key key{"file:" + path, 0, 0};
    return acquire(key, [&path] { return materializeFile(path); });
}

TraceStore::Stats
TraceStore::stats() const
{
    MutexLock lock(_mutex);
    return _stats;
}

} // namespace trace
} // namespace iraw
