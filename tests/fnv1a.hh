/**
 * @file
 * FNV-1a 64, the digest of every pin test: a pin drives one
 * component (a trace generator, a chip's maps, an IRAW structure),
 * folds every value it produces into one digest, and compares it
 * with a constant recorded before the component was last rewritten.
 * Any changed value, anywhere in the sequence, moves the digest.
 */

#ifndef IRAW_TESTS_FNV1A_HH
#define IRAW_TESTS_FNV1A_HH

#include <cstdint>

namespace iraw {

/** Running FNV-1a 64 hash over bytes, values folded low byte first. */
class Fnv1a
{
  public:
    void
    addByte(uint8_t b)
    {
        _h ^= b;
        _h *= 0x100000001b3ULL;
    }

    /** Fold the low @p bytes bytes of @p v, low byte first. */
    void
    add(uint64_t v, int bytes = 8)
    {
        for (int b = 0; b < bytes; ++b)
            addByte(static_cast<uint8_t>(v >> (8 * b)));
    }

    uint64_t value() const { return _h; }

  private:
    uint64_t _h = 0xcbf29ce484222325ULL;
};

} // namespace iraw

#endif // IRAW_TESTS_FNV1A_HH
