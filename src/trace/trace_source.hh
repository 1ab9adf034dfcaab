/**
 * @file
 * Abstract source of dynamic micro-op traces: the synthetic
 * generator (workload models), the binary trace file reader and the
 * trace store's replay cursor.  The pipeline fetches only from a
 * replay cursor (trace/trace_store.hh); the other sources feed
 * materialization, analysis and trace dumps.
 */

#ifndef IRAW_TRACE_TRACE_SOURCE_HH
#define IRAW_TRACE_TRACE_SOURCE_HH

#include <optional>

#include "isa/microop.hh"

namespace iraw {
namespace trace {

/** Pull interface for dynamic instruction streams. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Next micro-op, or std::nullopt at end of trace. */
    virtual std::optional<isa::MicroOp> next() = 0;

    /** Restart the stream from the beginning. */
    virtual void reset() = 0;

    /** Human-readable identification for reports. */
    virtual std::string name() const = 0;
};

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_TRACE_SOURCE_HH
