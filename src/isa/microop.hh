/**
 * @file
 * The micro-operation record: the unit the trace generator produces
 * and the pipeline consumes.  This is a trace-driven model, so each
 * record carries its resolved outcome (memory address, branch target
 * and direction) alongside its register operands.
 */

#ifndef IRAW_ISA_MICROOP_HH
#define IRAW_ISA_MICROOP_HH

#include <cstdint>
#include <string>

#include "isa/op_class.hh"
#include "isa/registers.hh"

namespace iraw {
namespace isa {

/** Width of MicroOp::pc: a program counter must be below 2^47. */
constexpr unsigned kPcBits = 47;
/** Width of the address word: an address must be below 2^48. */
constexpr unsigned kAddrBits = 48;

/**
 * One dynamic micro-operation, packed into two 64-bit words: a trace
 * store keeps every replayed op resident in this form.  Word 0 holds
 * the pc, `taken` and two registers; word 1 the address word, the
 * third register, the class and the access size.  An op carries no
 * sequence number; its position in the trace is its identity, and
 * trace::TraceBuffer::seqNum() derives the number a trace file
 * records.
 *
 * The narrow fields truncate what they cannot hold, so every source
 * keeps to them: a synthetic address stays below 2^35, and
 * trace::materializeFile rejects a record whose pc, address, class
 * or size does not fit.
 */
struct MicroOp
{
    // Bit-fields take no default member initializers before C++20.
    MicroOp()
        : pc(0), taken(false), dst(kInvalidReg), src1(kInvalidReg),
          memAddr(0), src2(kInvalidReg), opClass(OpClass::Nop), memSize(0)
    {
    }

    uint64_t pc : kPcBits; //!< virtual program counter
    bool taken : 1;        //!< direction; valid iff isControlOp
    RegId dst;             //!< destination register (if any)
    RegId src1;            //!< first source (if any)

    // The address word: the data address of a load or store (with
    // memSize) and the target of a control op, read through
    // target().  No op uses both, so they share one word; read it
    // only for the classes that use it.
    uint64_t memAddr : kAddrBits;
    RegId src2; //!< second source (if any)
    OpClass opClass : 4;
    uint8_t memSize : 4; //!< access size in bytes (1/2/4/8)

    /** A control op's target: the address word under its name. */
    uint64_t target() const { return memAddr; }
    void setTarget(uint64_t addr) { memAddr = addr; }

    bool hasDst() const { return isValidReg(dst); }
    bool hasSrc1() const { return isValidReg(src1); }
    bool hasSrc2() const { return isValidReg(src2); }
    bool isLoad() const { return opClass == OpClass::Load; }
    bool isStore() const { return opClass == OpClass::Store; }
    bool isBranch() const { return isControlOp(opClass); }
    bool isNop() const { return opClass == OpClass::Nop; }

    /** Number of valid source registers. */
    uint32_t
    numSrcs() const
    {
        return (hasSrc1() ? 1u : 0u) + (hasSrc2() ? 1u : 0u);
    }

    /** Textual rendering, e.g. "IntAlu r3 <- r1, r2". */
    std::string toString() const;

    /**
     * Structural validity: a known op class, and operand/outcome
     * fields that match it.
     */
    bool wellFormed() const;
};

// A trace store keeps each trace resident as records x sizeof(MicroOp),
// so this size is a sweep's trace memory.  Each word's fields must
// sum to 64 bits: one more bit starts a third word.
static_assert(sizeof(MicroOp) == 16,
              "MicroOp is the resident trace format: keep it 16 bytes");
static_assert(kNumOpClasses < 16, "OpClass must fit MicroOp::opClass");

/** Convenience factory: a pipeline-drain NOP (Sec. 4.2). */
MicroOp makeNop(uint64_t pc);

} // namespace isa
} // namespace iraw

#endif // IRAW_ISA_MICROOP_HH
