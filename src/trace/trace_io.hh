/**
 * @file
 * Binary trace file format: the writer.  trace::materializeFile
 * (trace/trace_store.hh) reads a file whole into a TraceBuffer.
 *
 * The paper's methodology is trace-driven; users with real traces can
 * convert them to this format and replay them through the simulator.
 * Layout: an 8-byte magic, a little-endian version word, a
 * little-endian record count, then fixed-width little-endian records
 * (see trace/trace_record.hh).  Every header and payload field is
 * packed explicitly so trace files are portable across hosts.
 */

#ifndef IRAW_TRACE_TRACE_IO_HH
#define IRAW_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "isa/microop.hh"

namespace iraw {
namespace trace {

class TraceBuffer;

/** Magic bytes identifying a trace file. */
constexpr char kTraceMagic[8] = {'I', 'R', 'A', 'W', 'T', 'R', 'C',
                                 '1'};
/**
 * Version 2: header words are packed little-endian (v1 wrote raw
 * host-endian) and records carry the source's sequence number, so a
 * dumped trace replays bit-identically on any host.
 */
constexpr uint32_t kTraceVersion = 2;

/** Streams micro-ops into a binary trace file. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append @p op as a record numbered @p seqNum. */
    void append(uint64_t seqNum, const isa::MicroOp &op);

    /** Finalize the header (record count) and close the file. */
    void close();

    uint64_t recordsWritten() const { return _count; }

  private:
    std::ofstream _out;
    std::string _path;
    uint64_t _count = 0;
    bool _closed = false;
};

/**
 * Write the first @p maxRecords micro-ops of @p buffer (all of them
 * if it holds fewer), each with its TraceBuffer::seqNum(), to a trace
 * file; returns records written.  trace::materializeFile reads the
 * file back.
 */
uint64_t dumpTrace(const TraceBuffer &buffer, const std::string &path,
                   uint64_t maxRecords);

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_TRACE_IO_HH
