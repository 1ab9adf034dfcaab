#include "service/spool.hh"

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

#include <fcntl.h>
#include <unistd.h>

namespace iraw {
namespace service {

uint32_t
crc32(const void *data, size_t size)
{
    // IEEE 802.3 polynomial, reflected; table built once.
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();

    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 doubles");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsToDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
frameRecord(const std::string &payload)
{
    char head[64];
    std::snprintf(head, sizeof(head), "IRSP1 %zu %08x ",
                  payload.size(),
                  crc32(payload.data(), payload.size()));
    std::string frame(head);
    frame += payload;
    frame += '\n';
    return frame;
}

namespace {

/**
 * Validate the frame starting at @p data[pos].  On success fills
 * @p payload and advances @p pos past the trailing newline.
 */
bool
parseFrame(const std::string &data, size_t &pos,
           std::string &payload)
{
    static const std::string kMagic = "IRSP1 ";
    if (data.compare(pos, kMagic.size(), kMagic) != 0)
        return false;
    size_t p = pos + kMagic.size();

    // Decimal payload length.
    uint64_t len = 0;
    size_t digits = 0;
    while (p < data.size() && data[p] >= '0' && data[p] <= '9') {
        len = len * 10 + static_cast<uint64_t>(data[p] - '0');
        ++p;
        if (++digits > 12)
            return false; // absurd length: corrupt
    }
    if (digits == 0 || p >= data.size() || data[p] != ' ')
        return false;
    ++p;

    // 8-hex-digit CRC.
    if (p + 8 > data.size())
        return false;
    uint32_t crc = 0;
    for (size_t i = 0; i < 8; ++i) {
        char c = data[p + i];
        uint32_t nib;
        if (c >= '0' && c <= '9')
            nib = static_cast<uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nib = static_cast<uint32_t>(c - 'a') + 10;
        else
            return false;
        crc = (crc << 4) | nib;
    }
    p += 8;
    if (p >= data.size() || data[p] != ' ')
        return false;
    ++p;

    // Payload + newline must fit in the file as read.
    if (p + len + 1 > data.size())
        return false;
    if (data[p + len] != '\n')
        return false;
    if (crc32(data.data() + p, len) != crc)
        return false;

    payload.assign(data, p, len);
    pos = p + len + 1;
    return true;
}

} // namespace

SpoolScan
scanSpoolFile(const std::string &path)
{
    SpoolScan scan;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return scan;
    scan.exists = true;

    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t pos = 0;
    std::string payload;
    while (pos < data.size() && parseFrame(data, pos, payload)) {
        scan.payloads.push_back(payload);
        scan.frameEnds.push_back(pos);
    }
    scan.validBytes = pos;
    scan.torn = pos < data.size();
    return scan;
}

namespace {

/** Append the JSON fragment for a key whose value is a u64. */
void
appendField(std::string &out, const char *key, uint64_t value)
{
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

/** Expect the literal @p lit at @p data[pos] and step over it. */
bool
expect(const std::string &data, size_t &pos, const char *lit)
{
    size_t n = std::strlen(lit);
    if (data.compare(pos, n, lit) != 0)
        return false;
    pos += n;
    return true;
}

/** Decimal u64; a value above 2^64-1 is rejected, not wrapped. */
bool
parseU64(const std::string &data, size_t &pos, uint64_t &value)
{
    value = 0;
    size_t digits = 0;
    while (pos < data.size() && data[pos] >= '0' &&
           data[pos] <= '9') {
        const uint64_t digit = static_cast<uint64_t>(data[pos] - '0');
        if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            return false;
        value = value * 10 + digit;
        ++pos;
        ++digits;
    }
    return digits > 0;
}

/** Quoted string; spool strings never need escapes (checked on
 *  encode), so a bare quote scan suffices. */
bool
parseQuoted(const std::string &data, size_t &pos, std::string &out)
{
    if (pos >= data.size() || data[pos] != '"')
        return false;
    size_t end = data.find('"', pos + 1);
    if (end == std::string::npos)
        return false;
    out.assign(data, pos + 1, end - pos - 1);
    pos = end + 1;
    return true;
}

/**
 * A result record's "f" array is SimResult::fields walked by the two
 * typed visitors below, then host's two values.  Doubles travel as
 * bit patterns, bools and the policy widened, and adapt.segments as
 * a count followed by each segment's AdaptSegment::fields.
 */
struct FieldWriter
{
    std::vector<uint64_t> values;

    void operator()(const char *, uint64_t v) { values.push_back(v); }
    void operator()(const char *, uint32_t v) { values.push_back(v); }
    void operator()(const char *, bool v) { values.push_back(v); }
    void
    operator()(const char *, double v)
    {
        values.push_back(doubleBits(v));
    }
    void
    operator()(const char *, adapt::Policy v)
    {
        values.push_back(static_cast<uint64_t>(v));
    }
    void
    operator()(const char *,
               const std::vector<adapt::AdaptSegment> &segments)
    {
        values.push_back(segments.size());
        for (const adapt::AdaptSegment &seg : segments)
            adapt::AdaptSegment::fields(*this, seg);
    }
};

/** The writer's mirror: rejects a value its field cannot hold. */
struct FieldReader
{
    const std::vector<uint64_t> &values;
    size_t pos = 0;
    bool ok = true;

    uint64_t
    next(uint64_t max = std::numeric_limits<uint64_t>::max())
    {
        if (pos >= values.size() || values[pos] > max) {
            ok = false;
            return 0;
        }
        return values[pos++];
    }

    void operator()(const char *, uint64_t &v) { v = next(); }
    void
    operator()(const char *, uint32_t &v)
    {
        v = static_cast<uint32_t>(
            next(std::numeric_limits<uint32_t>::max()));
    }
    void operator()(const char *, bool &v) { v = next(1) != 0; }
    void operator()(const char *, double &v) { v = bitsToDouble(next()); }
    void
    operator()(const char *, adapt::Policy &v)
    {
        v = static_cast<adapt::Policy>(
            next(static_cast<uint64_t>(adapt::Policy::ExploreGlobal)));
    }
    void
    operator()(const char *, std::vector<adapt::AdaptSegment> &segments)
    {
        // Every segment takes values, so a count above the values
        // left after it is corrupt; the cap also bounds the resize.
        segments.resize(next(values.size() - pos - 1));
        for (adapt::AdaptSegment &seg : segments)
            adapt::AdaptSegment::fields(*this, seg);
    }
};

void
appendU64Array(std::string &out, const std::vector<uint64_t> &values)
{
    out += '[';
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(values[i]);
    }
    out += ']';
}

/** A non-empty "[v,v,...]" array: a result record always has one. */
bool
parseU64Array(const std::string &data, size_t &pos,
              std::vector<uint64_t> &values)
{
    values.clear();
    if (!expect(data, pos, "["))
        return false;
    do {
        uint64_t v;
        if (!parseU64(data, pos, v))
            return false;
        values.push_back(v);
    } while (expect(data, pos, ","));
    return expect(data, pos, "]");
}

} // namespace

std::string
encodeShardHeader(const std::string &shardStem, uint64_t items)
{
    std::string out = "{\"t\":\"hdr\",\"v\":1,\"shard\":\"";
    out += shardStem; // stems are [0-9a-z-]: no escaping needed
    out += "\",";
    appendField(out, "items", items);
    out += '}';
    return out;
}

bool
decodeShardHeader(const std::string &payload, std::string &shardStem,
                  uint64_t &items)
{
    size_t pos = 0;
    return expect(payload, pos, "{\"t\":\"hdr\",\"v\":1,\"shard\":") &&
           parseQuoted(payload, pos, shardStem) &&
           expect(payload, pos, ",\"items\":") &&
           parseU64(payload, pos, items) &&
           expect(payload, pos, "}") && pos == payload.size();
}

std::string
encodeResult(uint64_t index, const sim::SimResult &r)
{
    FieldWriter w;
    sim::SimResult::fields(w, r);
    w("host.wallSeconds", r.host.wallSeconds);
    w("host.instructions", r.host.instructions);

    std::string out = "{\"t\":\"res\",\"v\":2,";
    appendField(out, "i", index);
    out += ",\"f\":";
    appendU64Array(out, w.values);
    out += '}';
    return out;
}

bool
decodeResult(const std::string &payload, uint64_t &index,
             sim::SimResult &r)
{
    size_t pos = 0;
    std::vector<uint64_t> values;
    if (!expect(payload, pos, "{\"t\":\"res\",\"v\":2,\"i\":") ||
        !parseU64(payload, pos, index) ||
        !expect(payload, pos, ",\"f\":") ||
        !parseU64Array(payload, pos, values) ||
        !expect(payload, pos, "}") || pos != payload.size())
        return false;

    r = sim::SimResult();
    FieldReader reader{values};
    sim::SimResult::fields(reader, r);
    reader("host.wallSeconds", r.host.wallSeconds);
    reader("host.instructions", r.host.instructions);
    return reader.ok && reader.pos == values.size();
}

SpoolWriter::~SpoolWriter()
{
    if (_fd >= 0)
        ::close(_fd);
}

bool
SpoolWriter::open(const std::string &partPath, bool append)
{
    if (_fd >= 0)
        ::close(_fd);
    int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
    _fd = ::open(partPath.c_str(), flags, 0644);
    _path = partPath;
    return _fd >= 0;
}

bool
SpoolWriter::append(const std::string &payload)
{
    return appendRaw(frameRecord(payload));
}

bool
SpoolWriter::appendRaw(const std::string &bytes)
{
    if (_fd < 0)
        return false;
    if (_forcedErrno) {
        errno = _forcedErrno;
        return false;
    }
    size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(_fd, bytes.data() + done,
                            bytes.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

bool
SpoolWriter::finalize(const std::string &finalPath)
{
    if (_fd < 0)
        return false;
    bool ok = ::fsync(_fd) == 0;
    ok = ::close(_fd) == 0 && ok;
    _fd = -1;
    return ok && ::rename(_path.c_str(), finalPath.c_str()) == 0;
}

} // namespace service
} // namespace iraw
