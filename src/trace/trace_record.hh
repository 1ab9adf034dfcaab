/**
 * @file
 * The packed micro-op record: the fixed-width, endian-explicit
 * encoding of one micro-op in a binary trace file (trace_io).
 * Everything is little-endian so dumped traces are portable across
 * hosts.  It is the file format only: the in-memory trace store holds
 * decoded isa::MicroOp values, which carry no sequence number, one
 * address word for the record's two address slots, and fields
 * narrower than the record's (a 47-bit pc, a 48-bit address, a 4-bit
 * class and size), so the caller supplies the record's number on
 * write and receives it on read.
 */

#ifndef IRAW_TRACE_TRACE_RECORD_HH
#define IRAW_TRACE_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>

#include "isa/microop.hh"

namespace iraw {
namespace trace {

/** Bytes per packed record: seqNum/pc/memAddr/target + 6 small fields. */
constexpr size_t kTraceRecordBytes = 4 * 8 + 6;

inline void
putLe32(uint8_t *buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline void
putLe64(uint8_t *buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint32_t
getLe32(const uint8_t *buf)
{
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

inline uint64_t
getLe64(const uint8_t *buf)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

/**
 * Serialize micro-op @p op with sequence number @p seqNum into @p buf
 * (kTraceRecordBytes bytes).  The op's address word goes to the slot
 * its class uses, memAddr for a load or store and target for a
 * control op; every other slot holds 0.
 */
inline void
packRecord(uint64_t seqNum, const isa::MicroOp &op, uint8_t *buf)
{
    putLe64(buf + 0, seqNum);
    putLe64(buf + 8, op.pc);
    putLe64(buf + 16, isa::isMemOp(op.opClass) ? op.memAddr : 0);
    putLe64(buf + 24, isa::isControlOp(op.opClass) ? op.target() : 0);
    buf[32] = static_cast<uint8_t>(op.opClass);
    buf[33] = op.dst;
    buf[34] = op.src1;
    buf[35] = op.src2;
    buf[36] = op.memSize;
    buf[37] = op.taken ? 1 : 0; // flags, bit 0: taken
}

/**
 * Deserialize one micro-op from @p buf (kTraceRecordBytes bytes) into
 * @p op; returns the record's sequence number.  The address word comes
 * from the slot the record's class uses (see packRecord) and is 0 for
 * a class that uses neither.  A slot the class does not use is not
 * read, and a value too wide for its field is truncated;
 * materializeFile rejects a record that does not re-pack to its own
 * bytes, which catches both.
 */
inline uint64_t
unpackRecord(const uint8_t *buf, isa::MicroOp &op)
{
    op.pc = getLe64(buf + 8);
    op.opClass = static_cast<isa::OpClass>(buf[32]);
    op.memAddr = 0;
    if (isa::isMemOp(op.opClass))
        op.memAddr = getLe64(buf + 16);
    else if (isa::isControlOp(op.opClass))
        op.memAddr = getLe64(buf + 24);
    op.dst = buf[33];
    op.src1 = buf[34];
    op.src2 = buf[35];
    op.memSize = buf[36];
    op.taken = (buf[37] & 1) != 0;
    return getLe64(buf + 0);
}

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_TRACE_RECORD_HH
