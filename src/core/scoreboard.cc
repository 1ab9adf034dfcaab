#include "core/scoreboard.hh"

#include "common/logging.hh"

namespace iraw {
namespace core {

using mechanism::buildBaselinePattern;
using mechanism::buildReadyPattern;
using mechanism::patternQuiescent;
using mechanism::ReadyPattern;

Scoreboard::Scoreboard(uint32_t bits, uint32_t bypassLevels)
    : _bits(bits), _bypassLevels(bypassLevels)
{
    fatalIf(bits < 4 || bits > mechanism::kMaxPatternBits,
            "Scoreboard: width %u outside [4, %u]", bits,
            mechanism::kMaxPatternBits);
    fatalIf(bypassLevels + 2 >= bits,
            "Scoreboard: %u bypass levels leave no room in %u bits",
            bypassLevels, bits);
    _ones = buildBaselinePattern(_bits, 0);
    _lut.build(_bits, _bypassLevels);
    // Every register starts quiescent (all ones).
    _regs.assign(isa::kNumLogicalRegs, _ones);
    _shadow.assign(isa::kNumLogicalRegs, _ones);
    _setCycle.assign(isa::kNumLogicalRegs, 0);
}

void
Scoreboard::setStabilizationMap(const std::vector<uint32_t> &perRegN,
                                uint32_t worst)
{
    fatalIf(perRegN.size() != isa::kNumLogicalRegs,
            "Scoreboard: stabilization map covers %zu of %u "
            "registers", perRegN.size(), isa::kNumLogicalRegs);
    for (uint32_t n : perRegN)
        fatalIf(n > worst,
                "Scoreboard: map entry %u exceeds declared worst %u",
                n, worst);
    _n = worst;
    _lineN = perRegN;
}

ReadyPattern
Scoreboard::shiftedBy(ReadyPattern p, uint64_t shifts) const
{
    // Left-shifting k times replicates the LSB into the low k bits;
    // after B shifts every bit carries the original LSB.
    ReadyPattern mask = (_bits >= 32) ? ~0u : ((1u << _bits) - 1);
    if (shifts == 0)
        return p & mask;
    if (shifts >= _bits)
        return (p & 1u) ? mask : 0;
    uint32_t k = static_cast<uint32_t>(shifts);
    ReadyPattern fill = (p & 1u) ? ((1u << k) - 1) : 0;
    return ((p << k) | fill) & mask;
}

bool
Scoreboard::isReady(isa::RegId reg) const
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    if (awaitingLongLatency(reg))
        return false;
    return readyAt(_regs[reg], age(reg));
}

bool
Scoreboard::isReadyShadow(isa::RegId reg) const
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    if (awaitingLongLatency(reg))
        return false;
    return readyAt(_shadow[reg], age(reg));
}

void
Scoreboard::setProducer(isa::RegId reg, uint32_t latency)
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    panicIf(latency > maxEncodableLatency(),
            "Scoreboard: latency %u exceeds encodable %u; use "
            "setLongLatencyProducer()",
            latency, maxEncodableLatency());
    // Under a per-register map (process variation) the producer
    // encodes its destination's own stabilization count; the map
    // maximum bounds maxEncodableLatency, so the per-register row
    // always covers this latency.
    uint32_t n = stabilizationCyclesFor(reg);
    _regs[reg] = _lut.producer(n, latency);
    _shadow[reg] = _lut.baseline(latency);
    _setCycle[reg] = _now;
}

void
Scoreboard::setLongLatencyProducer(isa::RegId reg, uint64_t readyCycle)
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    panicIf(readyCycle <= _now,
            "Scoreboard: long-latency producer of r%u ready at cycle "
            "%llu, not after the current cycle %llu",
            reg, static_cast<unsigned long long>(readyCycle),
            static_cast<unsigned long long>(_now));
    // The pattern of a producer completing at readyCycle: consumers
    // may issue then (bypass) but not in the stabilization window
    // that follows the RF write.
    uint32_t n = stabilizationCyclesFor(reg);
    _regs[reg] = _lut.producer(n, 0);
    _shadow[reg] = _lut.baseline(0);
    _setCycle[reg] = readyCycle;
}

bool
Scoreboard::quiescent(isa::RegId reg) const
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    return !awaitingLongLatency(reg) &&
           patternQuiescent(shiftedBy(_regs[reg], age(reg)), _bits);
}

ReadyPattern
Scoreboard::rawPattern(isa::RegId reg) const
{
    panicIf(!isa::isValidReg(reg), "Scoreboard: bad register %u",
            reg);
    if (awaitingLongLatency(reg))
        return 0;
    return shiftedBy(_regs[reg], age(reg));
}

} // namespace core
} // namespace iraw
