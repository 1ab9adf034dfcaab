/**
 * @file
 * The tests' one comparator for records: expectFieldsEqual walks a
 * record's field list (Record::fields, the list the spool codec and
 * PipelineStats::minus walk too), so it checks every listed member
 * and cannot drift from them.  Doubles compare bit for bit, and a
 * mismatch names its field.
 */

#ifndef IRAW_TESTS_FIELDS_EQUAL_HH
#define IRAW_TESTS_FIELDS_EQUAL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/field_count.hh"
#include "sim/experiment.hh"

namespace iraw {

/** Visitor over two records: EXPECTs each field pair equal. */
struct FieldsEqual
{
    template <class T>
    void
    operator()(const char *name, const T &a, const T &b) const
    {
        EXPECT_EQ(a, b) << name;
    }

    void
    operator()(const char *name, double a, double b) const
    {
        uint64_t bitsA, bitsB;
        std::memcpy(&bitsA, &a, sizeof(a));
        std::memcpy(&bitsB, &b, sizeof(b));
        EXPECT_EQ(bitsA, bitsB) << name << ": " << a << " vs " << b;
    }

    template <class E>
    void
    operator()(const char *name, const std::vector<E> &a,
               const std::vector<E> &b) const
    {
        EXPECT_EQ(a.size(), b.size()) << name;
        for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
            SCOPED_TRACE(std::string(name) + "[" + std::to_string(i) +
                         "]");
            E::fields(*this, a[i], b[i]);
        }
    }
};

/** Every field on @p Record's list is equal in @p a and @p b. */
template <class Record>
void
expectFieldsEqual(const Record &a, const Record &b)
{
    Record::fields(FieldsEqual{}, a, b);
}

/** Every member of two sweep machines.  MachineAtVcc has no field
 *  list, because nothing in src/ mirrors it; the guard keeps this
 *  comparator complete instead. */
inline void
expectMachinesIdentical(const sim::MachineAtVcc &a,
                        const sim::MachineAtVcc &b)
{
    EXPECT_EQ(a.vcc, b.vcc);
    EXPECT_EQ(a.irawEnabled, b.irawEnabled);
    EXPECT_EQ(a.stabilizationCycles, b.stabilizationCycles);
    EXPECT_EQ(a.cycleTimeAu, b.cycleTimeAu);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.execTimeAu, b.execTimeAu);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.rfIrawStalls, b.rfIrawStalls);
    EXPECT_EQ(a.iqGateStalls, b.iqGateStalls);
    EXPECT_EQ(a.dl0IrawStalls, b.dl0IrawStalls);
    EXPECT_EQ(a.otherIrawStalls, b.otherIrawStalls);
    EXPECT_EQ(a.rfIrawDelayedInsts, b.rfIrawDelayedInsts);
}

static_assert(fieldCount<sim::MachineAtVcc>() == 13,
              "compare it in expectMachinesIdentical");

} // namespace iraw

#endif // IRAW_TESTS_FIELDS_EQUAL_HH
