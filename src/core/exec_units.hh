/**
 * @file
 * Functional-unit pool of the 2-wide in-order core: two integer ALUs
 * (one handling multiplies/divides and branches), one memory port and
 * one FP unit.  Divides are unpipelined and block their unit.
 */

#ifndef IRAW_CORE_EXEC_UNITS_HH
#define IRAW_CORE_EXEC_UNITS_HH

#include <cstdint>

#include "core/core_config.hh"
#include "isa/op_class.hh"
#include "memory/iraw_guard.hh"

namespace iraw {
namespace core {

/** Per-cycle structural-hazard tracker. */
class ExecUnits
{
  public:
    explicit ExecUnits(const CoreConfig &cfg) : _cfg(cfg) {}

    /** Start a new cycle: per-cycle slot counters reset. */
    void
    newCycle()
    {
        _aluUsed = 0;
        _memUsed = 0;
        _fpUsed = 0;
    }

    /** Can an op of class @p c start execution at @p now? */
    bool
    canIssue(isa::OpClass c, memory::Cycle now) const
    {
        using isa::OpClass;
        switch (c) {
          case OpClass::IntDiv:
            return _aluUsed < _cfg.intAluUnits &&
                   now >= _intDivFreeAt;
          case OpClass::FpDiv:
            return _fpUsed < _cfg.fpUnits && now >= _fpDivFreeAt;
          case OpClass::IntAlu:
          case OpClass::IntMul:
          case OpClass::Branch:
          case OpClass::Call:
          case OpClass::Return:
          case OpClass::Nop:
            return _aluUsed < _cfg.intAluUnits;
          case OpClass::FpAdd:
          case OpClass::FpMul:
            // The FP divider is unpipelined and shares the FP unit.
            return _fpUsed < _cfg.fpUnits && now >= _fpDivFreeAt;
          case OpClass::Load:
          case OpClass::Store:
            return _memUsed < _cfg.memPorts;
          default:
            return false;
        }
    }

    /** Claim the unit for an op issuing at @p now. */
    void
    issue(isa::OpClass c, memory::Cycle now)
    {
        using isa::OpClass;
        switch (c) {
          case OpClass::IntDiv:
            ++_aluUsed;
            _intDivFreeAt =
                now + _cfg.latencies.latency(OpClass::IntDiv);
            break;
          case OpClass::FpDiv:
            ++_fpUsed;
            _fpDivFreeAt =
                now + _cfg.latencies.latency(OpClass::FpDiv);
            break;
          case OpClass::FpAdd:
          case OpClass::FpMul:
            ++_fpUsed;
            break;
          case OpClass::Load:
          case OpClass::Store:
            ++_memUsed;
            break;
          default:
            ++_aluUsed;
            break;
        }
    }

  private:
    const CoreConfig &_cfg;
    uint32_t _aluUsed = 0;
    uint32_t _memUsed = 0;
    uint32_t _fpUsed = 0;
    memory::Cycle _intDivFreeAt = 0;
    memory::Cycle _fpDivFreeAt = 0;
};

} // namespace core
} // namespace iraw

#endif // IRAW_CORE_EXEC_UNITS_HH
