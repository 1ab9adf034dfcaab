/**
 * @file
 * Lightweight per-stage profiling for the cycle loop.
 *
 * When a StageProfiler is attached (profile=1), each pipeline stage
 * is bracketed by two steady_clock reads and accumulates wall
 * nanoseconds plus a call count.  When none is attached the hot loop
 * pays one pointer test per stage — the stats stay out of every
 * deterministic aggregate, so profiled and unprofiled runs produce
 * bitwise-identical simulation results.
 *
 * Lives in src/obs/ because it reads the host clock: the
 * `obs-only-wallclock` lint rule confines clock reads to this layer
 * (docs/ARCHITECTURE.md, determinism invariant 6).
 *
 * Threading contract: a StageProfiler is thread-confined, not
 * thread-safe.  Each SimEngine owns exactly one and attaches it to
 * its own Pipeline; engines never share a profiler, and a sweep
 * worker only touches the profilers of engines it is running.  The
 * counters are copied into SimResult.host at finalize() and read by
 * the caller only after the worker's future resolves, so no
 * synchronization (and no mutex on this hot path) is needed.  Do
 * not attach one profiler to pipelines ticked by different threads.
 */

#ifndef IRAW_OBS_STAGE_PROFILER_HH
#define IRAW_OBS_STAGE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>

namespace iraw {

/** Wall-time/call accumulator for the fixed pipeline stages. */
class StageProfiler
{
  public:
    enum class Stage : uint32_t
    {
        Issue = 0, //!< issueStage()
        Fetch,     //!< fetchStage()
        kCount,
    };

    static constexpr size_t kStages =
        static_cast<size_t>(Stage::kCount);

    struct StageStats
    {
        uint64_t calls = 0;
        uint64_t ns = 0;
    };

    void
    add(Stage stage, uint64_t ns)
    {
        StageStats &s = _stages[static_cast<size_t>(stage)];
        ++s.calls;
        s.ns += ns;
    }

    const StageStats &
    stage(Stage stage) const
    {
        return _stages[static_cast<size_t>(stage)];
    }

    static const char *
    stageName(Stage stage)
    {
        switch (stage) {
          case Stage::Issue:
            return "issue";
          case Stage::Fetch:
            return "fetch";
          default:
            return "?";
        }
    }

    uint64_t
    totalNs() const
    {
        uint64_t total = 0;
        for (const StageStats &s : _stages)
            total += s.ns;
        return total;
    }

    void
    reset()
    {
        for (StageStats &s : _stages)
            s = StageStats{};
    }

  private:
    std::array<StageStats, kStages> _stages{};
};

/**
 * RAII stage bracket: times the enclosed scope iff a profiler is
 * attached; a null profiler costs two predictable branches.
 */
class ScopedStageTimer
{
  public:
    ScopedStageTimer(StageProfiler *profiler,
                     StageProfiler::Stage stage)
        : _profiler(profiler), _stage(stage)
    {
        if (_profiler)
            _start = std::chrono::steady_clock::now();
    }

    ~ScopedStageTimer()
    {
        if (_profiler) {
            auto end = std::chrono::steady_clock::now();
            _profiler->add(
                _stage,
                static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(end - _start)
                        .count()));
        }
    }

    ScopedStageTimer(const ScopedStageTimer &) = delete;
    ScopedStageTimer &operator=(const ScopedStageTimer &) = delete;

  private:
    StageProfiler *_profiler;
    StageProfiler::Stage _stage;
    std::chrono::steady_clock::time_point _start;
};

} // namespace iraw

#endif // IRAW_OBS_STAGE_PROFILER_HH
