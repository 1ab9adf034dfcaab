#include "trace/trace_store.hh"

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "common/logging.hh"
#include "obs/event_tracer.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "trace/trace_record.hh"

namespace iraw {
namespace trace {

TraceBuffer::TraceBuffer(std::string name, std::vector<isa::MicroOp> ops,
                         std::vector<uint64_t> seqNums)
    : _name(std::move(name)), _ops(std::move(ops)),
      _seqNums(std::move(seqNums))
{
    panicIf(!_seqNums.empty() && _seqNums.size() != _ops.size(),
            "TraceBuffer '%s': %zu sequence numbers for %zu ops",
            _name.c_str(), _seqNums.size(), _ops.size());
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

TraceBufferPtr
materializeSynthetic(const WorkloadProfile &profile, uint64_t seed,
                     uint64_t length)
{
    fatalIf(length == 0, "materializeSynthetic: zero length");
    // A buffer the host cannot hold would fail in the reserve below,
    // or, under an overcommitting kernel, page the host to death while
    // it fills; refuse it while nothing is allocated.  sysconf reports
    // -1 when it cannot tell, and then nothing is refused.
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long pageBytes = sysconf(_SC_PAGE_SIZE);
    fatalIf(pages > 0 && pageBytes > 0 &&
                length > static_cast<uint64_t>(pages) *
                             (static_cast<uint64_t>(pageBytes) /
                              sizeof(isa::MicroOp)),
            "materializeSynthetic: %llu micro-ops of %s do not fit in "
            "this host's %llu MiB of physical memory; lower "
            "insts=/warmup=",
            static_cast<unsigned long long>(length),
            profile.name.c_str(),
            static_cast<unsigned long long>(pages) *
                static_cast<unsigned long long>(pageBytes) >> 20);
    SyntheticTraceGenerator gen(profile, seed);
    std::vector<isa::MicroOp> ops;
    ops.reserve(length);
    for (uint64_t i = 0; i < length; ++i)
        gen.next(ops.emplace_back());
    return std::make_shared<TraceBuffer>(
        profile.name + "/seed" + std::to_string(seed), std::move(ops));
}

TraceBufferPtr
materializeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "TraceReader: cannot open '%s'", path.c_str());

    char magic[8];
    in.read(magic, sizeof(magic));
    fatalIf(!in || std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0,
            "TraceReader: '%s' is not an IRAW trace", path.c_str());

    uint8_t header[4 + 8];
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    fatalIf(!in, "TraceReader: '%s' truncated header", path.c_str());
    uint32_t version = getLe32(header);
    fatalIf(version != kTraceVersion,
            "TraceReader: '%s' has unsupported version %u",
            path.c_str(), version);
    const uint64_t total = getLe64(header + 4);

    // Bound the claimed count by what the file actually holds, so a
    // corrupt/crafted header can neither oversize the reserve below
    // (total * sizeof(MicroOp) must not overflow) nor promise
    // records that are not there.
    const std::streamoff headerBytes =
        sizeof(kTraceMagic) + sizeof(header);
    in.seekg(0, std::ios::end);
    const std::streamoff fileBytes = in.tellg();
    in.seekg(headerBytes);
    fatalIf(!in, "TraceReader: '%s' not seekable", path.c_str());
    const uint64_t available =
        static_cast<uint64_t>(fileBytes - headerBytes) /
        kTraceRecordBytes;
    fatalIf(total > available,
            "TraceReader: '%s' header claims %llu records but the "
            "file holds %llu",
            path.c_str(), static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(available));

    std::vector<isa::MicroOp> ops(total);
    // Stays empty while the file numbers its records 1..n, the numbers
    // a TraceBuffer derives; the first other number keeps them all, so
    // a sliced or merged trace re-dumps verbatim.
    std::vector<uint64_t> seqNums;
    for (uint64_t i = 0; i < total; ++i) {
        uint8_t buf[kTraceRecordBytes];
        in.read(reinterpret_cast<char *>(buf), sizeof(buf));
        fatalIf(!in, "TraceReader: '%s' truncated at record %llu",
                path.c_str(), static_cast<unsigned long long>(i));
        const uint64_t seq = unpackRecord(buf, ops[i]);
        // No consumer re-checks an op: an unknown class or register
        // would index past the pipeline's tables.  The record must
        // also re-pack to its own bytes: a value too wide for its
        // field (a pc at or above 2^47, an address at or above 2^48,
        // a class or size byte above 15) would be truncated, and an
        // address in a slot its class does not use or a flag bit past
        // `taken` dropped unread, so the file would not re-dump
        // verbatim.  The message prints the record's own bytes.
        uint8_t repacked[kTraceRecordBytes];
        packRecord(seq, ops[i], repacked);
        if (!ops[i].wellFormed() ||
            std::memcmp(repacked, buf, sizeof(buf)) != 0)
            fatal("TraceReader: '%s' record %llu (seqNum %llu) is "
                  "malformed: class %u, pc 0x%llx, dst %u, src %u/%u, "
                  "%u-byte access at 0x%llx, target 0x%llx, flags 0x%x",
                  path.c_str(), static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned>(buf[32]),
                  static_cast<unsigned long long>(getLe64(buf + 8)),
                  static_cast<unsigned>(buf[33]),
                  static_cast<unsigned>(buf[34]),
                  static_cast<unsigned>(buf[35]),
                  static_cast<unsigned>(buf[36]),
                  static_cast<unsigned long long>(getLe64(buf + 16)),
                  static_cast<unsigned long long>(getLe64(buf + 24)),
                  static_cast<unsigned>(buf[37]));
        if (seq != i + 1 && seqNums.empty()) {
            seqNums.resize(total);
            std::iota(seqNums.begin(), seqNums.begin() + i, 1);
        }
        if (!seqNums.empty())
            seqNums[i] = seq;
    }
    return std::make_shared<TraceBuffer>(
        "file:" + path, std::move(ops), std::move(seqNums));
}

TraceStore::TraceStore() : TraceStore(Config()) {}

TraceStore::TraceStore(Config cfg) : _cfg(std::move(cfg))
{
    _stats.byteCap = _cfg.byteCap;
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
    Key key{"synth:" + profile.name, seed, length};
    return acquire(key, [&profile, seed, length] {
        return materializeSynthetic(profile, seed, length);
    });
}

TraceBufferPtr
TraceStore::acquireFile(const std::string &path)
{
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
