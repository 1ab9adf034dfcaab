/** @file Unit tests for binary trace files. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/trace_io.hh"
#include "trace/trace_record.hh"
#include "trace/trace_store.hh"

namespace iraw {
namespace trace {
namespace {

/** The first @p n micro-ops of (@p workload, @p seed). */
TraceBufferPtr
synth(const char *workload, uint64_t seed, uint64_t n)
{
    return materializeSynthetic(profileByName(workload), seed, n);
}

/** The whole file's bytes. */
std::vector<uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

/** Overwrite @p path with @p bytes. */
void
spew(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _path = ::testing::TempDir() + "iraw_trace_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".trc";
    }
    void TearDown() override { std::remove(_path.c_str()); }
    std::string _path;
};

TEST_F(TraceIoTest, RoundTripPreservesEverything)
{
    TraceBufferPtr source = synth("spec2006int", 5, 5000);
    uint64_t written = dumpTrace(*source, _path, 5000);
    EXPECT_EQ(written, 5000u);

    TraceBufferPtr back = materializeFile(_path);
    ASSERT_EQ(back->records(), 5000u);
    // Packed records compare every field, and the slot each op's
    // address word goes to.
    uint8_t want[kTraceRecordBytes], got[kTraceRecordBytes];
    for (uint64_t i = 0; i < 5000; ++i) {
        packRecord(i + 1, source->at(i), want);
        packRecord(back->seqNum(i), back->at(i), got);
        EXPECT_EQ(std::memcmp(want, got, sizeof(want)), 0)
            << "record " << i;
    }
}

TEST_F(TraceIoTest, SeqNumsSurviveRoundTripVerbatim)
{
    // A dumped trace must replay bit-identically to its source; the
    // reader must not clobber stored sequence numbers with its own
    // counter (they are not sequential for sliced/merged traces).
    const uint64_t seqNums[] = {7, 42, 41, 1000000000001ULL};
    {
        TraceWriter writer(_path);
        for (uint64_t s : seqNums)
            writer.append(s, isa::makeNop(0x400000 + 4 * s));
        writer.close();
    }
    TraceBufferPtr back = materializeFile(_path);
    ASSERT_EQ(back->records(), std::size(seqNums));
    for (uint64_t i = 0; i < back->records(); ++i)
        EXPECT_EQ(back->seqNum(i), seqNums[i]);
    // Numbers that are not 1..n are kept, 8 bytes per record, and
    // re-dump verbatim.
    EXPECT_EQ(back->bytes(),
              std::size(seqNums) * (sizeof(isa::MicroOp) + 8));
    const std::string again = _path + ".again";
    EXPECT_EQ(dumpTrace(*back, again, 100), std::size(seqNums));
    EXPECT_EQ(slurp(again), slurp(_path));
    std::remove(again.c_str());
}

TEST_F(TraceIoTest, SyntheticDumpLoadDumpIsByteIdentical)
{
    // A synthetic trace is numbered 1..n, the numbers a loaded file
    // derives without storing them, so a reload costs one MicroOp per
    // op and dumps the same bytes it read.
    dumpTrace(*synth("office", 3, 2000), _path, 2000);
    TraceBufferPtr back = materializeFile(_path);
    EXPECT_EQ(back->bytes(), 2000u * sizeof(isa::MicroOp));
    const std::string again = _path + ".again";
    EXPECT_EQ(dumpTrace(*back, again, 2000), 2000u);
    EXPECT_EQ(slurp(again), slurp(_path));
    std::remove(again.c_str());
}

TEST_F(TraceIoTest, HeaderIsLittleEndian)
{
    {
        TraceWriter writer(_path);
        writer.append(1, isa::makeNop(0));
        writer.append(2, isa::makeNop(4));
        writer.close();
    }
    std::ifstream in(_path, std::ios::binary);
    char header[8 + 4 + 8];
    in.read(header, sizeof(header));
    ASSERT_TRUE(in);
    // Version word, little-endian.
    EXPECT_EQ(static_cast<uint8_t>(header[8]), kTraceVersion);
    EXPECT_EQ(header[9], 0);
    EXPECT_EQ(header[10], 0);
    EXPECT_EQ(header[11], 0);
    // Record count, little-endian.
    EXPECT_EQ(static_cast<uint8_t>(header[12]), 2);
    for (int i = 13; i < 20; ++i)
        EXPECT_EQ(header[i], 0) << "count byte " << i;
}

TEST_F(TraceIoTest, RejectsMissingFile)
{
    EXPECT_THROW(materializeFile("/nonexistent/file.trc"), FatalError);
}

TEST_F(TraceIoTest, RejectsBadMagic)
{
    std::ofstream out(_path, std::ios::binary);
    out << "NOTATRACEFILE_____________";
    out.close();
    EXPECT_THROW(materializeFile(_path), FatalError);
}

TEST_F(TraceIoTest, RejectsTruncatedRecords)
{
    dumpTrace(*synth("kernels", 2, 10), _path, 10);
    // Truncate mid-record.
    std::ifstream in(_path, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    in.close();
    std::ofstream trunc(_path,
                        std::ios::binary | std::ios::in |
                            std::ios::out);
    trunc.close();
    std::filesystem::resize_file(_path,
                                 static_cast<uintmax_t>(size) - 7);
    // The reader bounds the header's record count by the actual file
    // size, so truncation is detected at open, not mid-replay.
    EXPECT_THROW(materializeFile(_path), FatalError);
}

TEST_F(TraceIoTest, RejectsOverstatedRecordCount)
{
    // A corrupt/crafted header count must not oversize downstream
    // allocations (count * recordBytes could wrap uint64).
    dumpTrace(*synth("kernels", 2, 10), _path, 10);
    std::fstream f(_path, std::ios::binary | std::ios::in |
                              std::ios::out);
    f.seekp(12); // count field, after magic + version
    const uint64_t huge = ~0ULL / 37;
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>(huge >> (8 * i));
    f.write(buf, sizeof(buf));
    f.close();
    EXPECT_THROW(materializeFile(_path), FatalError);
}

// ---------------------------------------------------------------
// Malformed records: the reader is the only place a file's ops are
// checked, so each crafted file below must fail to load, naming the
// file and the record, instead of reaching the pipeline.
// ---------------------------------------------------------------

/** Write @p ops to @p path as records numbered 1..n. */
void
writeOps(const std::string &path, const std::vector<isa::MicroOp> &ops)
{
    TraceWriter writer(path);
    for (uint64_t i = 0; i < ops.size(); ++i)
        writer.append(i + 1, ops[i]);
    writer.close();
}

/** The FatalError message loading @p path raises ("" if none). */
std::string
loadError(const std::string &path)
{
    try {
        materializeFile(path);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Bytes before a trace file's first record: magic, version, count. */
constexpr size_t kHeaderBytes = 8 + 4 + 8;

TEST_F(TraceIoTest, RejectsUnknownOpClass)
{
    // An op class past the latency table's end.  An op's 4-bit class
    // field cannot hold 200, so the byte is written into the file;
    // the message shows it, not its low four bits (8, a Branch).
    writeOps(_path, {isa::makeNop(0x400000)});
    std::vector<uint8_t> bytes = slurp(_path);
    bytes[kHeaderBytes + 32] = 200;
    spew(_path, bytes);
    const std::string err = loadError(_path);
    EXPECT_NE(err.find(_path), std::string::npos) << err;
    EXPECT_NE(err.find("record 0 "), std::string::npos) << err;
    EXPECT_NE(err.find("class 200,"), std::string::npos) << err;
}

TEST_F(TraceIoTest, RejectsOutOfRangeRegister)
{
    // r250 is neither a logical register nor the no-register sentinel.
    isa::MicroOp op = isa::makeNop(0x400000);
    op.opClass = isa::OpClass::IntAlu;
    op.dst = 250;
    writeOps(_path, {op});
    const std::string err = loadError(_path);
    EXPECT_NE(err.find(_path), std::string::npos) << err;
    EXPECT_NE(err.find("record 0 "), std::string::npos) << err;
}

TEST_F(TraceIoTest, RejectsStoreWithDestinationAndMisalignedAddress)
{
    isa::MicroOp store = isa::makeNop(0x400008);
    store.opClass = isa::OpClass::Store;
    store.dst = 3;
    store.src1 = 1;
    store.memAddr = 0x1002;
    store.memSize = 8;
    writeOps(_path,
             {isa::makeNop(0x400000), isa::makeNop(0x400004), store});
    const std::string err = loadError(_path);
    EXPECT_NE(err.find(_path), std::string::npos) << err;
    EXPECT_NE(err.find("record 2 "), std::string::npos) << err;
}

TEST_F(TraceIoTest, RejectsAnAddressItsClassDoesNotUse)
{
    // A record has a memAddr and a target slot, but an op holds one
    // address word: a stray address in a slot the op's class does not
    // use would be dropped unread, and the file would not re-dump
    // verbatim.
    isa::MicroOp alu = isa::makeNop(0x400000);
    alu.opClass = isa::OpClass::IntAlu;
    alu.dst = 3;
    isa::MicroOp load = isa::makeNop(0x400004);
    load.opClass = isa::OpClass::Load;
    load.dst = 4;
    load.src1 = 3;
    load.memAddr = 0x2000;
    load.memSize = 8;
    writeOps(_path, {alu, load});
    ASSERT_EQ(loadError(_path), "");
    const std::vector<uint8_t> pristine = slurp(_path);

    struct Stray
    {
        uint64_t record;
        size_t slot; //!< 16: memAddr, 24: target
        uint64_t addr;
    };
    // An IntAlu uses neither slot; a Load uses memAddr, not target.
    const Stray strays[] = {
        {0, 16, 0x1000}, {0, 24, 0x400100}, {1, 24, 0x400100}};
    for (const Stray &stray : strays) {
        std::vector<uint8_t> bytes = pristine;
        putLe64(bytes.data() + kHeaderBytes +
                    stray.record * kTraceRecordBytes + stray.slot,
                stray.addr);
        spew(_path, bytes);
        const std::string err = loadError(_path);
        const std::string record =
            "record " + std::to_string(stray.record) + " (seqNum " +
            std::to_string(stray.record + 1) + ")";
        EXPECT_NE(err.find(_path), std::string::npos) << err;
        EXPECT_NE(err.find(record), std::string::npos) << err;
    }
}

TEST_F(TraceIoTest, RejectsAValueTooWideForTheOp)
{
    // An op holds a 47-bit pc, a 48-bit address word and a 4-bit
    // size, so a wider value would be truncated and the file would
    // not re-dump verbatim.  The message shows the record's value.
    isa::MicroOp load = isa::makeNop(0x400000);
    load.opClass = isa::OpClass::Load;
    load.dst = 4;
    load.src1 = 3;
    load.memAddr = 0x2000;
    load.memSize = 8;
    isa::MicroOp branch = isa::makeNop(0x400004);
    branch.opClass = isa::OpClass::Branch;
    branch.src1 = 1;
    branch.taken = true;
    branch.setTarget(0x400100);
    writeOps(_path, {load, branch});
    ASSERT_EQ(loadError(_path), "");
    const std::vector<uint8_t> pristine = slurp(_path);

    struct Wide
    {
        uint64_t record;
        size_t offset; //!< 8: pc, 16: memAddr, 24: target, 36: size
        uint64_t value;
        const char *shown;
    };
    const Wide wides[] = {
        {0, 8, 0x400000 | 1ull << 47, "pc 0x800000400000,"},
        {0, 16, 0x2000 | 1ull << 48, "access at 0x1000000002000,"},
        {1, 24, 0x400100 | 1ull << 48, "target 0x1000000400100,"},
        // 24 truncates to 8, a size this load could have.
        {0, 36, 24, "24-byte access"},
    };
    for (const Wide &wide : wides) {
        std::vector<uint8_t> bytes = pristine;
        uint8_t *field = bytes.data() + kHeaderBytes +
                         wide.record * kTraceRecordBytes + wide.offset;
        if (wide.offset == 36)
            *field = static_cast<uint8_t>(wide.value);
        else
            putLe64(field, wide.value);
        spew(_path, bytes);
        const std::string err = loadError(_path);
        const std::string record =
            "record " + std::to_string(wide.record) + " (seqNum " +
            std::to_string(wide.record + 1) + ")";
        EXPECT_NE(err.find(record), std::string::npos) << err;
        EXPECT_NE(err.find(wide.shown), std::string::npos) << err;
    }
}

TEST_F(TraceIoTest, WidestValuesRoundTripVerbatim)
{
    // The largest pc and addresses an op holds load and re-dump byte
    // for byte.
    const uint64_t maxPc = (1ull << isa::kPcBits) - 1;
    const uint64_t maxAddr = (1ull << isa::kAddrBits) - 1;
    isa::MicroOp load = isa::makeNop(maxPc);
    load.opClass = isa::OpClass::Load;
    load.dst = isa::kNumLogicalRegs - 1;
    load.src1 = 3;
    load.memAddr = maxAddr - 7;
    load.memSize = 8;
    isa::MicroOp call = isa::makeNop(maxPc - 3);
    call.opClass = isa::OpClass::Call;
    call.taken = true;
    call.setTarget(maxAddr);
    writeOps(_path, {load, call});

    TraceBufferPtr back = materializeFile(_path);
    ASSERT_EQ(back->records(), 2u);
    EXPECT_EQ(back->at(0).pc, maxPc);
    EXPECT_EQ(back->at(0).memAddr, maxAddr - 7);
    EXPECT_EQ(back->at(1).target(), maxAddr);
    const std::string again = _path + ".again";
    EXPECT_EQ(dumpTrace(*back, again, 2), 2u);
    EXPECT_EQ(slurp(again), slurp(_path));
    std::remove(again.c_str());
}

TEST_F(TraceIoTest, RejectsAFlagBitOtherThanTaken)
{
    // Bit 0 is `taken`; any other bit would be dropped unread.
    isa::MicroOp call = isa::makeNop(0x400000);
    call.opClass = isa::OpClass::Call;
    call.setTarget(0x400100);
    call.taken = true;
    writeOps(_path, {call});
    ASSERT_EQ(loadError(_path), "");
    std::vector<uint8_t> bytes = slurp(_path);
    constexpr size_t kFlagsOffset = kHeaderBytes + 37;
    bytes[kFlagsOffset] = 0x03;
    spew(_path, bytes);
    const std::string err = loadError(_path);
    EXPECT_NE(err.find("record 0 (seqNum 1)"), std::string::npos)
        << err;
}

TEST_F(TraceIoTest, WriterCountsRecords)
{
    {
        TraceWriter writer(_path);
        isa::MicroOp nop = isa::makeNop(0);
        writer.append(1, nop);
        writer.append(2, nop);
        EXPECT_EQ(writer.recordsWritten(), 2u);
        writer.close();
    }
    EXPECT_EQ(materializeFile(_path)->records(), 2u);
}

TEST_F(TraceIoTest, DumpStopsAtSourceEnd)
{
    uint64_t written = dumpTrace(*synth("kernels", 3, 50), _path, 1000);
    EXPECT_EQ(written, 50u);
}

// ---------------------------------------------------------------
// Fuzz-style robustness: corrupt trace files must error cleanly
// (FatalError, never a crash, oversized allocation or partial-read
// UB).  All randomness is PRNG-seeded, so failures reproduce.
// ---------------------------------------------------------------

/** Load the whole file; returns records read, -1 on FatalError. */
int64_t
readAll(const std::string &path)
{
    try {
        return static_cast<int64_t>(materializeFile(path)->records());
    } catch (const FatalError &) {
        return -1;
    }
}

TEST_F(TraceIoTest, FuzzTruncationAlwaysErrorsCleanly)
{
    dumpTrace(*synth("spec2006int", 11, 20), _path, 20);
    const std::vector<uint8_t> pristine = slurp(_path);
    ASSERT_GT(pristine.size(), 20u);

    // Every strictly shorter prefix breaks either the header or the
    // header's record-count promise, so open must throw — never
    // read garbage or crash.  Cover the header region densely and
    // the payload with a deterministic stride.
    std::vector<size_t> cuts;
    for (size_t i = 0; i < 21 && i < pristine.size(); ++i)
        cuts.push_back(i);
    for (size_t i = 21; i < pristine.size(); i += 13)
        cuts.push_back(i);
    cuts.push_back(pristine.size() - 1);
    for (size_t cut : cuts) {
        std::vector<uint8_t> bytes(pristine.begin(),
                                   pristine.begin() + cut);
        spew(_path, bytes);
        EXPECT_EQ(readAll(_path), -1) << "cut at " << cut;
    }
}

TEST_F(TraceIoTest, FuzzBitFlippedHeaderNeverCrashes)
{
    dumpTrace(*synth("kernels", 13, 16), _path, 16);
    const std::vector<uint8_t> pristine = slurp(_path);
    ASSERT_GE(pristine.size(), kHeaderBytes);

    for (size_t byte = 0; byte < kHeaderBytes; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bytes = pristine;
            bytes[byte] ^= static_cast<uint8_t>(1u << bit);
            spew(_path, bytes);
            int64_t got = readAll(_path);
            // Magic/version flips and count inflations must throw;
            // a count *deflation* (a low-order count-byte flip) is
            // indistinguishable from a legitimately shorter trace
            // and reads cleanly — but never more than what the
            // file holds.
            EXPECT_LE(got, 16) << "byte " << byte << " bit " << bit;
            if (byte < 12) {
                EXPECT_EQ(got, -1)
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

TEST_F(TraceIoTest, FuzzOversizedRecordCountsAllThrow)
{
    dumpTrace(*synth("server", 17, 8), _path, 8);
    const std::vector<uint8_t> pristine = slurp(_path);

    const uint64_t counts[] = {
        9,                  // one more than the file holds
        1ull << 32,         // oversize but no multiply overflow
        (1ull << 63) + 5,   // high bit set
        ~0ull,              // count * recordBytes wraps uint64
        ~0ull / 37,
    };
    for (uint64_t count : counts) {
        std::vector<uint8_t> bytes = pristine;
        for (int i = 0; i < 8; ++i)
            bytes[12 + i] =
                static_cast<uint8_t>(count >> (8 * i));
        spew(_path, bytes);
        EXPECT_EQ(readAll(_path), -1) << "count " << count;
    }
}

TEST_F(TraceIoTest, FuzzGarbagePayloadThrowsFatalError)
{
    // Record payloads are attacker-controlled bytes as far as the
    // reader is concerned: a bit pattern that does not decode into a
    // well-formed MicroOp must fail the load cleanly, since no
    // consumer re-checks an op.  PRNG-seeded so a failure
    // reproduces.
    dumpTrace(*synth("kernels", 19, 32), _path, 32);
    std::vector<uint8_t> bytes = slurp(_path);
    Pcg32 rng(0xfadedbeefULL);
    for (size_t i = kHeaderBytes; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(rng.next());
    spew(_path, bytes);
    EXPECT_EQ(readAll(_path), -1);
}

} // namespace
} // namespace trace
} // namespace iraw
