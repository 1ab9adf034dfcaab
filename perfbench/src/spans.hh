/**
 * @file
 * The benchmark's span log: one span per call into a simulator layer
 * (name, start, end, parent), kept in memory and written once at the
 * end as Chrome trace JSON.  Spans are recorded from the benchmark's
 * own code around public library calls; nothing inside the library
 * is instrumented.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds. */
uint64_t nowNs();

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1; //!< index into spans(), -1 for a root
        uint64_t startNs = 0;
        uint64_t endNs = 0;
    };

    /** Open a span as a child of the innermost open one. */
    int open(const std::string &name);
    void close(int id);

    /** Record a child of the innermost open span after the fact. */
    void add(const std::string &name, uint64_t startNs,
             uint64_t endNs);

    const std::vector<Span> &spans() const { return _spans; }

    /** Write every span as a Chrome complete event ("X"), with the
     *  parent span's name as an argument.  False on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/**
 * Times one call; records it as a span when a log is attached.  With
 * a null log it is a plain timer, so the untraced and traced runs
 * share one code path.
 */
class Scope
{
  public:
    Scope(SpanLog *log, const std::string &name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Seconds since the scope opened. */
    double seconds() const;

  private:
    SpanLog *_log;
    int _id = -1;
    uint64_t _startNs;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
