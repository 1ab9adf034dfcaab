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

/**
 * One dynamic micro-operation.  The 8-byte fields come first and the
 * 1-byte ones after them, so the struct packs into 40 bytes: a trace
 * store keeps every replayed op resident in this form.
 */
struct MicroOp
{
    uint64_t seqNum = 0;  //!< dynamic sequence number (1-based)
    uint64_t pc = 0;      //!< virtual program counter

    // Outcomes: memAddr/memSize are valid iff isMemOp(opClass),
    // target/taken iff isControlOp(opClass).
    uint64_t memAddr = 0;
    uint64_t target = 0;

    OpClass opClass = OpClass::Nop;

    RegId dst = kInvalidReg;  //!< destination register (if any)
    RegId src1 = kInvalidReg; //!< first source (if any)
    RegId src2 = kInvalidReg; //!< second source (if any)

    uint8_t memSize = 0; //!< access size in bytes (1/2/4/8)
    bool taken = false;

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

    /** Textual rendering, e.g. "12: IntAlu r3 <- r1, r2". */
    std::string toString() const;

    /** Structural validity (operand/outcome fields match the class). */
    bool wellFormed() const;
};

/** Convenience factory: a pipeline-drain NOP (Sec. 4.2). */
MicroOp makeNop(uint64_t seqNum, uint64_t pc);

} // namespace isa
} // namespace iraw

#endif // IRAW_ISA_MICROOP_HH
