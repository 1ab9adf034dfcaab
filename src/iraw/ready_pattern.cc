#include "iraw/ready_pattern.hh"

#include "common/logging.hh"

namespace iraw {
namespace mechanism {

ReadyPattern
buildReadyPattern(uint32_t bits, uint32_t latency,
                  uint32_t bypassLevels, uint32_t stabilization)
{
    fatalIf(bits < 2 || bits > kMaxPatternBits,
            "buildReadyPattern: width %u outside [2, %u]", bits,
            kMaxPatternBits);
    fatalIf(latency + bypassLevels + stabilization >= bits,
            "buildReadyPattern: latency %u + bypass %u + N %u must "
            "be < width %u (no trailing ready bit left)",
            latency, bypassLevels, stabilization, bits);

    ReadyPattern p = 0;
    uint32_t pos = bits; // next unwritten bit position (MSB side)

    auto emit = [&p, &pos](uint32_t count, bool one) {
        for (uint32_t i = 0; i < count; ++i) {
            --pos;
            if (one)
                p |= (1u << pos);
        }
    };

    emit(latency, false);              // (I)
    if (stabilization > 0) {
        emit(bypassLevels, true);      // (II)
        emit(stabilization, false);    // (III)
    }
    emit(pos, true);                   // (IV) fill with ones

    return p;
}

std::string
patternToString(ReadyPattern p, uint32_t bits)
{
    std::string s;
    s.reserve(bits);
    for (uint32_t i = bits; i-- > 0;)
        s.push_back(((p >> i) & 1u) ? '1' : '0');
    return s;
}

} // namespace mechanism
} // namespace iraw
