#include "trace/trace_io.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_record.hh"
#include "trace/trace_store.hh"

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
TraceWriter::append(uint64_t seqNum, const isa::MicroOp &op)
{
    panicIf(_closed, "TraceWriter: append after close");
    uint8_t buf[kTraceRecordBytes];
    packRecord(seqNum, op, buf);
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

uint64_t
dumpTrace(const TraceBuffer &buffer, const std::string &path,
          uint64_t maxRecords)
{
    TraceWriter writer(path);
    const uint64_t n = std::min(maxRecords, buffer.records());
    for (uint64_t i = 0; i < n; ++i)
        writer.append(buffer.seqNum(i), buffer.ops()[i]);
    writer.close();
    return writer.recordsWritten();
}

} // namespace trace
} // namespace iraw
