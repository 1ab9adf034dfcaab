#include "isa/microop.hh"

#include <sstream>

namespace iraw {
namespace isa {

std::string
MicroOp::toString() const
{
    std::ostringstream os;
    os << opClassName(opClass);
    if (hasDst())
        os << " r" << static_cast<int>(dst) << " <-";
    bool first = true;
    if (hasSrc1()) {
        os << (first ? " " : ", ") << 'r' << static_cast<int>(src1);
        first = false;
    }
    if (hasSrc2()) {
        os << (first ? " " : ", ") << 'r' << static_cast<int>(src2);
        first = false;
    }
    if (isLoad() || isStore()) {
        os << " [0x" << std::hex << memAddr << std::dec << ", "
           << static_cast<int>(memSize) << "B]";
    }
    if (isBranch()) {
        os << (taken ? " taken" : " not-taken") << " -> 0x"
           << std::hex << target() << std::dec;
    }
    return os.str();
}

bool
MicroOp::wellFormed() const
{
    if (opClass >= OpClass::NumClasses)
        return false;
    // Register ids must be valid or the explicit sentinel.
    auto regOk = [](RegId r) {
        return r == kInvalidReg || isValidReg(r);
    };
    if (!regOk(dst) || !regOk(src1) || !regOk(src2))
        return false;
    // src2 without src1 is malformed.
    if (hasSrc2() && !hasSrc1())
        return false;
    if (isMemOp(opClass)) {
        if (memSize != 1 && memSize != 2 && memSize != 4 && memSize != 8)
            return false;
        // Accesses must not straddle their natural alignment; the
        // generator always emits aligned accesses.
        if (memAddr % memSize != 0)
            return false;
    } else if (memSize != 0) {
        return false;
    }
    if (isLoad() && !hasDst())
        return false;
    if (isStore() && hasDst())
        return false;
    if (opClass == OpClass::Nop &&
        (hasDst() || hasSrc1() || hasSrc2()))
        return false;
    if (!isControlOp(opClass) && taken)
        return false;
    return true;
}

MicroOp
makeNop(uint64_t pc)
{
    MicroOp op;
    op.pc = pc;
    op.opClass = OpClass::Nop;
    return op;
}

} // namespace isa
} // namespace iraw
