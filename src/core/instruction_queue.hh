/**
 * @file
 * The instruction queue: a circular buffer filled in program order at
 * AI entries/cycle whose ICI oldest entries are considered for issue
 * (paper Sec. 4.2).  Head/tail are (log2(size)+1)-bit counters so the
 * Figure 9 occupancy hardware can be cross-checked against the
 * software occupancy.
 */

#ifndef IRAW_CORE_INSTRUCTION_QUEUE_HH
#define IRAW_CORE_INSTRUCTION_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "isa/microop.hh"
#include "memory/iraw_guard.hh"

namespace iraw {
namespace core {

/** One IQ entry: a decoded micro-op plus pipeline bookkeeping. */
struct IqEntry
{
    /** Points into the resident trace buffer, which outlives the
     *  run, or at the pipeline's one NOP for drain and wrong-path
     *  entries. */
    const isa::MicroOp *op = nullptr;
    memory::Cycle allocCycle = 0;
    bool predictedTaken = false;
    bool mispredicted = false;
    bool isDrainNop = false; //!< injected for IQ draining (Sec. 4.2)
    /** Fetched down a mispredicted path; squashed at resolution.
     *  Wrong-path allocations keep the IQ occupancy realistic while
     *  a mispredicted branch is in flight (they are IQ writes in the
     *  real machine too). */
    bool isWrongPath = false;
    bool irawDelayCounted = false;
};

/** Circular in-order instruction queue. */
class InstructionQueue
{
  public:
    explicit InstructionQueue(uint32_t size);

    bool full() const { return occupancy() >= _size; }
    bool empty() const { return _head == _tail; }
    /** Derived from the hardware pointers (the Figure 9 identity). */
    uint32_t
    occupancy() const
    {
        return (_tail - _head) & (2 * _size - 1);
    }

    /**
     * Entries that are neither drain NOOPs nor wrong-path filler,
     * maintained incrementally so the drain logic's "anything real
     * left?" checks are O(1) instead of an O(occupancy) scan per
     * cycle.  Relies on the flags being immutable after
     * allocateBack().
     */
    uint32_t realEntries() const { return _realCount; }

    /**
     * Allocate at the tail in place; the queue must not be full.
     * Resets the slot, applies the drain / wrong-path flags (they
     * feed the realEntries() counter and must not change afterwards)
     * and returns the slot for the caller to fill.
     */
    IqEntry &
    allocateBack(bool isDrainNop = false, bool isWrongPath = false)
    {
        panicIf(full(),
                "InstructionQueue: allocateBack() on a full queue");
        if (!isDrainNop && !isWrongPath)
            ++_realCount;
        IqEntry &slot = _entries[_tail & (_size - 1)];
        slot = IqEntry{};
        slot.isDrainNop = isDrainNop;
        slot.isWrongPath = isWrongPath;
        _tail = (_tail + 1) & (2 * _size - 1);
        ++_allocations;
        return slot;
    }

    /** i-th oldest entry (0 == head); @p i must be < occupancy. */
    const IqEntry &
    at(uint32_t i) const
    {
        panicIf(i >= occupancy(),
                "InstructionQueue: at(%u) with occupancy %u", i,
                occupancy());
        return _entries[(_head + i) & (_size - 1)];
    }
    IqEntry &
    at(uint32_t i)
    {
        panicIf(i >= occupancy(),
                "InstructionQueue: at(%u) with occupancy %u", i,
                occupancy());
        return _entries[(_head + i) & (_size - 1)];
    }

    /** Remove the oldest entry. */
    void popFront();

    /** Squash the youngest entry (branch-mispredict recovery). */
    void popBack();

    /** Drop everything (flush). */
    void clear();

    /** Hardware pointer values (mod 2*size) for the Figure 9 gate. */
    uint32_t headPointer() const { return _head; }
    uint32_t tailPointer() const { return _tail; }

    uint32_t size() const { return _size; }
    uint64_t allocations() const { return _allocations; }

  private:
    static bool
    isReal(const IqEntry &entry)
    {
        return !entry.isDrainNop && !entry.isWrongPath;
    }

    uint32_t _size = 0;
    /** Fixed ring of _size slots (power of two): allocate/pop are
     *  index arithmetic, never container reshaping.  Slot of the
     *  i-th oldest entry is (_head + i) & (_size - 1): the mod-2N
     *  hardware pointers are the single source of truth. */
    std::vector<IqEntry> _entries;
    uint32_t _head = 0;
    uint32_t _tail = 0;
    uint32_t _realCount = 0;
    uint64_t _allocations = 0;
};

} // namespace core
} // namespace iraw

#endif // IRAW_CORE_INSTRUCTION_QUEUE_HH
