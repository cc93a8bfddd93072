/**
 * @file
 * Low-overhead observability: scoped timers, thread-local counter,
 * timer, and histogram registries, and span recording for the Chrome
 * trace-event exporter (obs/trace_export.hh).
 *
 * Design rules (see docs/INTERNALS.md §8):
 *  - Everything is off by default, in the one build there is. The
 *    master switch is a relaxed atomic read (`obs::enabled()`), not
 *    a compile-time option; a disabled call site costs one
 *    predictable branch and touches no registry state — no
 *    allocations, no map lookups, no clock reads.
 *  - Hot paths instrument at *chunk or job granularity*, never per
 *    instruction: accumulate locally, then make one registry call.
 *  - Registries are thread-local and mutated only by their owning
 *    thread; `snapshot()` merges every thread's registry into one
 *    view at aggregation points (sweep end, test assertions).
 *    Registries outlive their threads, so short-lived worker threads
 *    can be merged after they join.
 *  - Histograms are stats::Histogram, one fixed log-linear layout, so
 *    any two merge and their percentiles are at most 1/64 high.
 */

#ifndef GDIFF_OBS_OBS_HH
#define GDIFF_OBS_OBS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.hh"

namespace gdiff {
namespace obs {

namespace detail {
extern std::atomic<bool> gEnabled;
} // namespace detail

/** @return true when instrumentation is collecting. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/** Turn collection on or off at runtime. */
void setEnabled(bool on);

/**
 * @return nanoseconds on the steady clock since the process's obs
 * epoch (first call). Monotonic per thread and consistent across
 * threads, which is what the trace exporter's timestamps need.
 */
uint64_t nowNs();

/** One completed span, as the Chrome trace exporter will emit it. */
struct SpanEvent
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint32_t tid = 0; ///< stable small id of the recording thread
    /// optional key/value annotations (rendered as the event's args)
    std::vector<std::pair<std::string, std::string>> args;
};

/** Accumulated time under one timer name. */
struct TimerStat
{
    uint64_t calls = 0;
    uint64_t totalNs = 0;

    double seconds() const { return static_cast<double>(totalNs) / 1e9; }
};

/** The merged view of every thread's registry. */
struct Snapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, TimerStat> timers;
    std::map<std::string, stats::Histogram> histograms;
    std::vector<SpanEvent> spans; ///< per-thread chronological order
};

/**
 * One thread's instrumentation state. Obtain the calling thread's
 * registry with local(); all mutators are cheap and intended to be
 * called at chunk/job granularity. Entry addresses are stable for the
 * registry's lifetime, so hot call sites may cache the pointer a
 * counter() lookup returns and increment through it directly.
 */
class Registry
{
  public:
    /** @return the calling thread's registry (created on first use). */
    static Registry &local();

    /**
     * @return the address of the named per-thread counter, creating
     * it at zero on first use. The address never changes; increment
     * with std::memory_order_relaxed.
     */
    std::atomic<uint64_t> *counter(std::string_view name);

    /** Add @p n to the named counter (uncached convenience form). */
    void addCount(std::string_view name, uint64_t n);

    /** Fold @p ns nanoseconds over @p calls calls into a timer. */
    void addTimer(std::string_view name, uint64_t ns,
                  uint64_t calls = 1);

    /** @return the named timer's accumulated nanoseconds (0 if it
     * does not exist). Reads this thread's registry only. */
    uint64_t timerNs(std::string_view name) const;

    /**
     * @return the named per-thread histogram, created empty on first
     * use. snapshot() merges same-named histograms across threads.
     */
    stats::Histogram *histogram(std::string_view name);

    /** Record a completed span for the trace exporter. */
    void addSpan(std::string name, uint64_t startNs, uint64_t durNs,
                 std::vector<std::pair<std::string, std::string>>
                     args = {});

    /** @return this registry's stable small thread id. */
    uint32_t tid() const { return threadId; }

  private:
    Registry();

    friend Snapshot snapshot();
    friend void reset();

    /// Spans kept per thread before the oldest are dropped (counted
    /// in the "obs.spans_dropped" counter) — a runaway-loop backstop.
    static constexpr size_t maxSpans = 1 << 20;

    mutable std::mutex mu;
    uint32_t threadId = 0;
    std::map<std::string, std::atomic<uint64_t>, std::less<>> counters;
    std::map<std::string, TimerStat, std::less<>> timers;
    std::map<std::string, stats::Histogram, std::less<>> histograms;
    std::vector<SpanEvent> spans;
    uint64_t spansDropped = 0;
};

/** Merge every thread's registry into one Snapshot. */
Snapshot snapshot();

/** Clear every thread's registry (sweep start, tests). */
void reset();

/**
 * Render a snapshot as stats::Table reports: the per-stage timer
 * breakdown ("obs stage summary"), the counters, and — where present —
 * histograms with p50/p95 columns.
 */
void printSummary(std::ostream &os, const Snapshot &snap);

/** Convenience overload: snapshot() then print. */
void printSummary(std::ostream &os);

/**
 * RAII timer: measures construction-to-destruction and folds it into
 * the thread-local timer @p name; with @p withSpan it also records a
 * span for the trace exporter. Does nothing — not even a clock read —
 * when obs is disabled at construction time.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name, bool withSpan = false)
        : name(name), span(withSpan), startNs(enabled() ? nowNs() : 0),
          active(enabled())
    {}

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Annotate the span (no-op when inactive or span-less). */
    void
    arg(std::string key, std::string value)
    {
        if (active && span)
            args.emplace_back(std::move(key), std::move(value));
    }

    ~ScopedTimer()
    {
        if (!active)
            return;
        uint64_t end = nowNs();
        Registry &reg = Registry::local();
        reg.addTimer(name, end - startNs);
        if (span)
            reg.addSpan(name, startNs, end - startNs, std::move(args));
    }

  private:
    const char *name;
    bool span;
    uint64_t startNs;
    bool active;
    std::vector<std::pair<std::string, std::string>> args;
};

#define GDIFF_OBS_CAT2_(a, b) a##b
#define GDIFF_OBS_CAT_(a, b) GDIFF_OBS_CAT2_(a, b)

/** Time the enclosing scope into the thread-local timer @p name. */
#define GDIFF_OBS_SCOPE(name)                                             \
    ::gdiff::obs::ScopedTimer GDIFF_OBS_CAT_(obsScope_, __LINE__)(name)
/** Like GDIFF_OBS_SCOPE, and also record a trace-exporter span. */
#define GDIFF_OBS_SPAN(name)                                              \
    ::gdiff::obs::ScopedTimer GDIFF_OBS_CAT_(obsSpan_,                    \
                                             __LINE__)(name, true)
/** Add @p n events to the thread-local counter @p cname. */
#define GDIFF_OBS_COUNT(cname, n)                                         \
    do {                                                                  \
        if (::gdiff::obs::enabled())                                      \
            ::gdiff::obs::Registry::local().addCount((cname), (n));       \
    } while (0)

} // namespace obs
} // namespace gdiff

#endif // GDIFF_OBS_OBS_HH
