/**
 * @file
 * Crash-safe result spooling for the sharded experiment service.
 *
 * Each shard appends its finished simulation results to a per-shard
 * spool file as framed JSONL records:
 *
 *     IRSP1 <payload-bytes> <crc32-hex> <json>\n
 *
 * The length prefix bounds the read, the CRC covers the payload, and
 * a record becomes durable only once its whole frame is on disk — so
 * a worker killed mid-append can at worst leave a *torn tail* that
 * the resume scan detects and truncates, never a silently corrupt
 * record.  A completed shard is atomically renamed from
 * `<stem>.jsonl.part` to `<stem>.jsonl`, making "this shard is done"
 * a rename-atomic fact a SIGKILL cannot fake.  The frame is the only
 * one a worker writes: its Chrome trace events travel in it too, one
 * event per record, in a per-attempt side file.
 *
 * Doubles are transported as their IEEE-754 bit patterns (unsigned
 * decimals in the JSON), so a spooled-and-merged run is bitwise
 * identical to an uninterrupted in-process run — determinism
 * invariant 8 (docs/ARCHITECTURE.md).
 */

#ifndef IRAW_SERVICE_SPOOL_HH
#define IRAW_SERVICE_SPOOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hh"

namespace iraw {
namespace service {

/** CRC-32 (IEEE 802.3 polynomial) of @p size bytes at @p data. */
uint32_t crc32(const void *data, size_t size);

/** Bit-exact double transport. */
uint64_t doubleBits(double v);
double bitsToDouble(uint64_t bits);

/** Wrap @p payload in the length+CRC frame described above. */
std::string frameRecord(const std::string &payload);

/** Result of scanning a spool file for its valid record prefix. */
struct SpoolScan
{
    /** Frame payloads of the valid prefix, in file order. */
    std::vector<std::string> payloads;
    /** File offset just past each payload's frame. */
    std::vector<uint64_t> frameEnds;
    /** Bytes of the valid prefix (truncation point for a torn
     *  tail). */
    uint64_t validBytes = 0;
    /** Bytes beyond the valid prefix (torn frame, bad CRC, or
     *  garbage). */
    bool torn = false;
    /** The file exists (an absent file scans as empty, not torn). */
    bool exists = false;
};

/**
 * Scan @p path front to back, validating each frame (prefix syntax,
 * length bound, CRC, trailing newline).  Scanning stops at the first
 * invalid byte; everything before it is the durable prefix.
 */
SpoolScan scanSpoolFile(const std::string &path);

/**
 * First record of every spool file: identifies the shard the file
 * belongs to, so a stale or foreign file can never poison a resume.
 */
std::string encodeShardHeader(const std::string &shardStem,
                              uint64_t items);
bool decodeShardHeader(const std::string &payload,
                       std::string &shardStem, uint64_t &items);

/**
 * Serialize one finished simulation as a spool payload: one u64
 * array holding SimResult::fields, then the host wall-clock profile.
 * @p index is the config's position in the service call's config
 * vector.  The config itself is NOT transported (the supervisor
 * re-attaches its own, identical copy); every other field —
 * including every double, bit for bit — round-trips.
 */
std::string encodeResult(uint64_t index, const sim::SimResult &r);

/**
 * Parse a payload produced by encodeResult.  Returns false (leaving
 * the outputs unspecified) on any syntax, field or type mismatch,
 * or on a value its field cannot hold; the caller treats that as a
 * bad record, not a fatal error.
 */
bool decodeResult(const std::string &payload, uint64_t &index,
                  sim::SimResult &r);

/**
 * Append-only spool writer over a POSIX fd.  Each append writes one
 * whole frame with a single write(2) and reports failure instead of
 * throwing, so the worker can turn spool trouble (full disk,
 * injected ENOSPC) into a clean nonzero exit.
 */
class SpoolWriter
{
  public:
    SpoolWriter() = default;
    ~SpoolWriter();
    SpoolWriter(const SpoolWriter &) = delete;
    SpoolWriter &operator=(const SpoolWriter &) = delete;

    /**
     * Open @p partPath for spooling.  @p append continues an
     * existing file at its current end (resume); otherwise the file
     * is created or truncated.
     */
    bool open(const std::string &partPath, bool append);

    /** Frame and append @p payload; false on any write error. */
    bool append(const std::string &payload);

    /** Append raw bytes unframed (fault injection: torn tails). */
    bool appendRaw(const std::string &bytes);

    /**
     * Close and atomically rename the part file to @p finalPath,
     * publishing the shard as complete.
     */
    bool finalize(const std::string &finalPath);

    /** Simulate a write failure with this errno (fault injection). */
    void failWritesWith(int err) { _forcedErrno = err; }

  private:
    int _fd = -1;
    std::string _path;
    int _forcedErrno = 0;
};

} // namespace service
} // namespace iraw

#endif // IRAW_SERVICE_SPOOL_HH
