/**
 * @file
 * Micro-operation classes and execution latencies for the modelled
 * Silverthorne-class in-order core.
 */

#ifndef IRAW_ISA_OP_CLASS_HH
#define IRAW_ISA_OP_CLASS_HH

#include <array>
#include <cstdint>
#include <string>

namespace iraw {
namespace isa {

/** Functional classes of micro-operations. */
enum class OpClass : uint8_t
{
    IntAlu = 0, //!< single-cycle integer ALU
    IntMul,     //!< pipelined integer multiply
    IntDiv,     //!< unpipelined long-latency integer divide
    FpAdd,      //!< floating-point add/sub/convert
    FpMul,      //!< floating-point multiply
    FpDiv,      //!< unpipelined long-latency FP divide/sqrt
    Load,       //!< memory read
    Store,      //!< memory write
    Branch,     //!< conditional/unconditional branch
    Call,       //!< function call (pushes the RSB)
    Return,     //!< function return (pops the RSB)
    Nop,        //!< no-operation (also used for pipeline draining)
    NumClasses
};

constexpr size_t kNumOpClasses =
    static_cast<size_t>(OpClass::NumClasses);

/** Human-readable mnemonic for an op class. */
const char *opClassName(OpClass c);

/** True for loads and stores. */
constexpr bool
isMemOp(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True for anything that redirects fetch. */
constexpr bool
isControlOp(OpClass c)
{
    return c == OpClass::Branch || c == OpClass::Call ||
           c == OpClass::Return;
}

/** True for FP-pipeline operations. */
constexpr bool
isFpOp(OpClass c)
{
    return c == OpClass::FpAdd || c == OpClass::FpMul ||
           c == OpClass::FpDiv;
}

/** Execution latencies per op class. */
class LatencyTable
{
  public:
    /** Default latencies for the modelled core. */
    LatencyTable();

    /** Execution latency in cycles for @p c (cache hits for loads). */
    uint32_t latency(OpClass c) const
    {
        return _latency[static_cast<size_t>(c)];
    }

    /** Override a latency (for design-space exploration). */
    void setLatency(OpClass c, uint32_t cycles);

    /** Largest latency of any op class. */
    uint32_t maxLatency() const;

  private:
    std::array<uint32_t, kNumOpClasses> _latency{};
};

} // namespace isa
} // namespace iraw

#endif // IRAW_ISA_OP_CLASS_HH
