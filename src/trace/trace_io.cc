#include "trace/trace_io.hh"

#include <cstring>

#include "common/logging.hh"
#include "trace/trace_record.hh"

namespace iraw {
namespace trace {

TraceWriter::TraceWriter(const std::string &path)
    : _out(path, std::ios::binary), _path(path)
{
    fatalIf(!_out, "TraceWriter: cannot open '%s'", path.c_str());
    _out.write(kTraceMagic, sizeof(kTraceMagic));
    uint8_t header[4 + 8];
    putLe32(header, kTraceVersion);
    putLe64(header + 4, 0); // record-count placeholder
    _out.write(reinterpret_cast<const char *>(header),
               sizeof(header));
}

TraceWriter::~TraceWriter()
{
    if (!_closed) {
        try {
            close();
        } catch (...) {
            // Destructors must not throw; the explicit close() path
            // reports errors.
        }
    }
}

void
TraceWriter::append(const isa::MicroOp &op)
{
    panicIf(_closed, "TraceWriter: append after close");
    uint8_t buf[kTraceRecordBytes];
    packRecord(op, buf);
    _out.write(reinterpret_cast<const char *>(buf), sizeof(buf));
    ++_count;
}

void
TraceWriter::close()
{
    if (_closed)
        return;
    _closed = true;
    _out.seekp(sizeof(kTraceMagic) + sizeof(uint32_t));
    uint8_t count[8];
    putLe64(count, _count);
    _out.write(reinterpret_cast<const char *>(count), sizeof(count));
    _out.close();
    fatalIf(!_out, "TraceWriter: error finalizing '%s'", _path.c_str());
}

TraceReader::TraceReader(const std::string &path) : _path(path)
{
    openAndValidate();
}

void
TraceReader::openAndValidate()
{
    _in.open(_path, std::ios::binary);
    fatalIf(!_in, "TraceReader: cannot open '%s'", _path.c_str());

    char magic[8];
    _in.read(magic, sizeof(magic));
    fatalIf(!_in || std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0,
            "TraceReader: '%s' is not an IRAW trace", _path.c_str());

    uint8_t header[4 + 8];
    _in.read(reinterpret_cast<char *>(header), sizeof(header));
    fatalIf(!_in, "TraceReader: '%s' truncated header", _path.c_str());
    uint32_t version = getLe32(header);
    fatalIf(version != kTraceVersion,
            "TraceReader: '%s' has unsupported version %u",
            _path.c_str(), version);
    _total = getLe64(header + 4);

    // Bound the claimed count by what the file actually holds, so a
    // corrupt/crafted header can neither oversize downstream buffer
    // allocations (recordCount() * recordBytes must not overflow)
    // nor promise records that are not there.
    const std::streamoff headerBytes =
        sizeof(kTraceMagic) + sizeof(header);
    _in.seekg(0, std::ios::end);
    const std::streamoff fileBytes = _in.tellg();
    _in.seekg(headerBytes);
    fatalIf(!_in, "TraceReader: '%s' not seekable", _path.c_str());
    const uint64_t available =
        static_cast<uint64_t>(fileBytes - headerBytes) /
        kTraceRecordBytes;
    fatalIf(_total > available,
            "TraceReader: '%s' header claims %llu records but the "
            "file holds %llu",
            _path.c_str(), static_cast<unsigned long long>(_total),
            static_cast<unsigned long long>(available));
    _read = 0;
}

std::optional<isa::MicroOp>
TraceReader::next()
{
    if (_read >= _total)
        return std::nullopt;
    uint8_t buf[kTraceRecordBytes];
    _in.read(reinterpret_cast<char *>(buf), sizeof(buf));
    fatalIf(!_in, "TraceReader: '%s' truncated at record %llu",
            _path.c_str(),
            static_cast<unsigned long long>(_read));
    isa::MicroOp op;
    // The record carries the source's sequence number; synthesizing
    // one here would make replays diverge from the dumped stream.
    unpackRecord(buf, op);
    ++_read;
    return op;
}

void
TraceReader::reset()
{
    _in.close();
    _in.clear();
    openAndValidate();
}

std::string
TraceReader::name() const
{
    return "file:" + _path;
}

uint64_t
dumpTrace(TraceSource &source, const std::string &path,
          uint64_t maxRecords)
{
    TraceWriter writer(path);
    for (uint64_t i = 0; i < maxRecords; ++i) {
        auto op = source.next();
        if (!op)
            break;
        writer.append(*op);
    }
    writer.close();
    return writer.recordsWritten();
}

} // namespace trace
} // namespace iraw
