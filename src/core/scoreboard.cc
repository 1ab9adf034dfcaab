#include "core/scoreboard.hh"

namespace iraw {
namespace core {

void
Scoreboard::setStabilizationMap(const std::vector<uint32_t> &perRegN)
{
    fatalIf(perRegN.size() != isa::kNumLogicalRegs,
            "Scoreboard: stabilization map covers %zu of %u "
            "registers", perRegN.size(), isa::kNumLogicalRegs);
    _lineN = perRegN;
}

bool
Scoreboard::isReady(isa::RegId reg, uint64_t now) const
{
    // Ready from the arrival until the bypass window closes, and
    // again from the stable cycle: readyAt <= now < readyAt + bypass,
    // or now >= stableAt.  Before the arrival, now - readyAt wraps
    // past any bypass depth, and stableAt >= readyAt > now.  Both
    // tests are evaluated without a branch: their outcome depends on
    // the data, and as short-circuit branches they made vcc_sweep
    // about 10% slower (gcc 12 Release, Xeon x86-64).
    const Reg &r = at(reg);
    return (now - r.readyAt < _bypassLevels) | (now >= r.stableAt);
}

bool
Scoreboard::isReadyShadow(isa::RegId reg, uint64_t now) const
{
    return now >= at(reg).readyAt;
}

void
Scoreboard::setProducer(isa::RegId reg, uint64_t readyAt, uint64_t now)
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    panicIf(readyAt <= now,
            "Scoreboard: producer of r%u ready at cycle %llu, not "
            "after the current cycle %llu",
            reg, static_cast<unsigned long long>(readyAt),
            static_cast<unsigned long long>(now));
    // Under a per-register map (process variation) the producer
    // takes its destination's own stabilization count.
    const uint32_t n = stabilizationCyclesFor(reg);
    _regs[reg].readyAt = readyAt;
    _regs[reg].stableAt = n == 0 ? readyAt : readyAt + _bypassLevels + n;
}

} // namespace core
} // namespace iraw
