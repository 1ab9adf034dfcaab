#include "service/shard_manifest.hh"

#include <cstdio>
#include <fstream>
#include <map>

#include "common/field_count.hh"
#include "service/spool.hh"
#include "sim/runner.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace service {

namespace {

/** Incremental FNV-1a 64. */
struct Hasher
{
    uint64_t state = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ull;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void u32(uint32_t v) { u64(v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void d(double v) { u64(doubleBits(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size()); // length prefix: "ab","c" != "a","bc"
        bytes(s.data(), s.size());
    }
};

// The structs configFingerprint hashes, by member count: a new
// member must be hashed below (or named an observer here).  The
// cache and TLB `name` labels are not hashed; SimConfig's profile
// and tracer are observers and stay unhashed.
static_assert(fieldCount<core::CoreConfig>() == 20, "hash it");
static_assert(fieldCount<memory::MemoryConfig>() == 11, "hash it");
static_assert(fieldCount<memory::CacheParams>() == 4, "hash it");
static_assert(fieldCount<memory::TlbParams>() == 4, "hash it");
static_assert(fieldCount<adapt::AdaptConfig>() == 17, "hash it");
static_assert(fieldCount<sim::SimConfig>() == 14, "hash it");

void
hashCore(Hasher &h, const core::CoreConfig &c)
{
    h.u32(c.fetchWidth);
    h.u32(c.issueWidth);
    h.u32(c.iqEntries);
    h.u32(c.scoreboardBits);
    h.u32(c.bypassLevels);
    h.u32(c.commitStoresPerCycle);
    h.u32(c.maxStabilizationCycles);
    h.u32(c.branchMispredictPenalty);
    h.u32(c.loadMissForwardDelay);
    for (size_t i = 0; i < isa::kNumOpClasses; ++i)
        h.u32(c.latencies.latency(static_cast<isa::OpClass>(i)));
    h.str(c.predictorKind);
    h.u32(c.predictorEntries);
    h.u32(c.predictorHistoryBits);
    h.u32(c.rsbDepth);
    h.b(c.determinismMode);
    h.b(c.injectPredictionCorruption);
    h.u64(c.corruptionSeed);
    h.u32(c.intAluUnits);
    h.u32(c.memPorts);
    h.u32(c.fpUnits);
}

void
hashMem(Hasher &h, const memory::MemoryConfig &m)
{
    for (const memory::CacheParams *cache : {&m.il0, &m.dl0, &m.ul1}) {
        h.u64(cache->sizeBytes);
        h.u32(cache->assoc);
        h.u32(cache->lineBytes);
    }
    for (const memory::TlbParams *tlb : {&m.itlb, &m.dtlb}) {
        h.u32(tlb->entries);
        h.u64(tlb->pageBytes);
        h.u32(tlb->missPenalty);
    }
    h.u32(m.ul1HitLatency);
    h.u32(m.fbEntries);
    h.u32(m.wcbEntries);
    h.u32(m.wcbDrainLatency);
    h.u32(m.wcbForwardLatency);
    h.d(m.dramLatencyNs);
}

/** FNV-1a of the bytes of file @p path; an unreadable file hashes
 *  as empty (the run itself reports the error). */
uint64_t
fileDigest(const std::string &path)
{
    Hasher h;
    std::ifstream in(path, std::ios::binary);
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        h.bytes(buf, static_cast<size_t>(in.gcount()));
    return h.state;
}

} // namespace

uint64_t
configFingerprint(const sim::SimConfig &cfg)
{
    Hasher h;
    hashCore(h, cfg.core);
    hashMem(h, cfg.mem);

    h.str(cfg.workload);
    h.str(cfg.tracePath);
    h.u64(cfg.seed);
    h.u64(cfg.instructions);
    h.u64(cfg.warmupInstructions);
    h.d(cfg.vcc);
    h.u64(static_cast<uint64_t>(cfg.mode));
    h.u32(cfg.issueThrottle);

    // Chip identity: the sample is a pure function of (seed, index,
    // params, geometry), and the geometry is already hashed above.
    h.b(cfg.chip != nullptr);
    if (cfg.chip) {
        h.u32(cfg.chip->chipIndex());
        h.u64(cfg.chip->chipSeed());
        const variation::VariationParams &p = cfg.chip->params();
        h.d(p.sigma);
        h.d(p.systematicSigma);
        h.d(p.voltageExponent);
    }

    h.b(cfg.adapt != nullptr);
    if (cfg.adapt) {
        const adapt::AdaptConfig &a = *cfg.adapt;
        h.u64(static_cast<uint64_t>(a.policy));
        h.u64(a.epochCycles);
        h.u32(a.switchCycles);
        h.d(a.switchEnergyAu);
        h.d(a.floorVcc);
        h.d(a.stepDownThreshold);
        h.d(a.stepUpThreshold);
        h.d(a.refTimePerInst);
        h.d(a.irawDynOverhead);
        h.d(a.capPowerAu);
        h.u32(a.modeVariants);
        h.u32(a.throttleVariants);
        h.u32(a.hysteresisEpochs);
        h.d(a.phaseIpcThreshold);
        h.d(a.phaseStallThreshold);
        h.d(a.capSelectFraction);
        h.d(a.resolvedFloorVcc);
    }
    return h.state;
}

std::string
partPath(const std::string &dir, const Shard &shard)
{
    return dir + "/" + shard.stem + ".jsonl.part";
}

std::string
donePath(const std::string &dir, const Shard &shard)
{
    return dir + "/" + shard.stem + ".jsonl";
}

ShardManifest
buildManifest(const std::vector<sim::SimConfig> &configs,
              size_t chunkSize, uint64_t callOrdinal)
{
    ShardManifest manifest;
    std::vector<std::vector<size_t>> chunks =
        sim::traceGroupedChunks(configs, chunkSize);

    // configFingerprint hashes a trace= file's path, not its
    // contents: fold in a digest of the bytes too, so a rewritten
    // file renames its shards and their stale spools never merge.
    // Each distinct file is read once per manifest; synthetic
    // configs keep their stems.
    std::map<std::string, uint64_t> fileDigests;
    manifest.shards.reserve(chunks.size());
    for (std::vector<size_t> &chunk : chunks) {
        Shard shard;
        Hasher h;
        h.u64(chunk.size());
        for (size_t i : chunk) {
            h.u64(configFingerprint(configs[i]));
            const std::string &path = configs[i].tracePath;
            if (path.empty())
                continue;
            auto it = fileDigests.find(path);
            if (it == fileDigests.end())
                it = fileDigests.emplace(path, fileDigest(path)).first;
            h.u64(it->second);
        }
        shard.indices = std::move(chunk);
        shard.hash = h.state;
        shard.ordinal = manifest.shards.size();

        char stem[64];
        std::snprintf(stem, sizeof(stem),
                      "shard-%llu-%zu-%016llx",
                      static_cast<unsigned long long>(callOrdinal),
                      shard.ordinal,
                      static_cast<unsigned long long>(shard.hash));
        shard.stem = stem;
        manifest.shards.push_back(std::move(shard));
    }
    return manifest;
}

} // namespace service
} // namespace iraw
