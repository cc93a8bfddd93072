/**
 * @file
 * In-memory span recorder for the benchmark's traced run, plus the
 * raw-sample statistics every reported percentile is computed from.
 *
 * Spans are recorded by the benchmark's own code around each call it
 * makes into a gdiff layer (workload, sim, pipeline, sample, runner,
 * serve); nothing inside the program is instrumented. A span's name
 * is "<layer>.<operation>", so a layer's self time is the summed self
 * time of its spans. Spans stay in memory until the run ends, then
 * are written once as a Chrome trace.
 */

#ifndef GDIFF_PERFBENCH_TRACER_HH
#define GDIFF_PERFBENCH_TRACER_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * @return the @p q quantile (0..1) of @p v by linear interpolation
 * between closest ranks, computed from the raw samples.
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** One recorded interval. Times are ns since the tracer's epoch. */
struct Span
{
    std::string name;     ///< "<layer>.<operation>"
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = none; may live on another thread
    uint64_t request = 0; ///< job or request id the span serves
    uint32_t thread = 0;
    bool probe = false;   ///< recorded by a bypassed-layer probe
    int64_t start = 0;
    int64_t end = 0;
};

/** Thread-safe span store; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), epoch(Clock::now()) {}

    bool enabled() const { return on; }

    /** Spans recorded from now on carry the probe flag (or not). */
    void setProbe(bool p) { probe.store(p); }

    bool probing() const { return probe.load(); }

    int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch)
            .count();
    }

    /** Record a finished span; @return its id (0 when disabled). */
    uint64_t add(std::string name, int64_t start, int64_t end,
                 uint64_t parent, uint64_t request)
    {
        uint64_t id = reserve();
        addReserved(id, std::move(name), start, end, parent, request);
        return id;
    }

    /** Reserve an id for a span whose end is not known yet. */
    uint64_t reserve() { return on ? nextId.fetch_add(1) : 0; }

    /** Record a span under an id from reserve(). */
    void addReserved(uint64_t id, std::string name, int64_t start,
                     int64_t end, uint64_t parent, uint64_t request)
    {
        if (!on)
            return;
        Span s;
        s.name = std::move(name);
        s.id = id;
        s.parent = parent;
        s.request = request;
        s.thread = threadIndex();
        s.probe = probe.load();
        s.start = start;
        s.end = end;
        std::lock_guard<std::mutex> g(lock);
        spans.push_back(std::move(s));
    }

    std::vector<Span> snapshot() const
    {
        std::lock_guard<std::mutex> g(lock);
        return spans;
    }

    /** Write every span as a Chrome trace ("X" events). */
    bool write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        std::vector<Span> all = snapshot();
        for (size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%llu,\"parent\":%llu,"
                         "\"request\":%llu,\"probe\":%s}}%s\n",
                         s.name.c_str(), s.thread, s.start / 1e3,
                         (s.end - s.start) / 1e3,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.request),
                         s.probe ? "true" : "false",
                         i + 1 < all.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    static uint32_t threadIndex()
    {
        static std::atomic<uint32_t> next{0};
        thread_local uint32_t mine = next.fetch_add(1);
        return mine;
    }

    bool on;
    Clock::time_point epoch;
    std::atomic<bool> probe{false};
    std::atomic<uint64_t> nextId{1};
    mutable std::mutex lock;
    std::vector<Span> spans; // guarded by lock
};

/**
 * RAII span around one call into a layer. The parent defaults to the
 * innermost open scope on this thread; pass one explicitly for a
 * span caused by work on another thread.
 */
class Scope
{
  public:
    Scope(Tracer &t, std::string name, uint64_t request = 0,
          uint64_t parent = ~uint64_t(0))
        : tracer(t), spanName(std::move(name)), req(request)
    {
        if (!tracer.enabled())
            return;
        par = parent != ~uint64_t(0)
                  ? parent
                  : (stack().empty() ? 0 : stack().back());
        spanId = tracer.reserve();
        stack().push_back(spanId);
        start = tracer.now();
    }

    ~Scope()
    {
        if (!tracer.enabled())
            return;
        stack().pop_back();
        tracer.addReserved(spanId, std::move(spanName), start,
                           tracer.now(), par, req);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return spanId; }

  private:
    static std::vector<uint64_t> &stack()
    {
        thread_local std::vector<uint64_t> s;
        return s;
    }

    Tracer &tracer;
    std::string spanName;
    uint64_t req = 0;
    uint64_t par = 0;
    uint64_t spanId = 0;
    int64_t start = 0;
};

/** Per-layer breakdown of a set of spans. */
struct LayerTimes
{
    /// layer -> seconds of its spans not covered by child spans on
    /// the same thread
    std::map<std::string, double> selfSeconds;
    /// thread-seconds inside at least one span, per thread summed
    double coveredSeconds = 0;
};

/**
 * Self time per layer over the non-probe spans. A child counts
 * against its parent only when both ran on the same thread, so a
 * worker's job span never hides the submitting thread's wait.
 */
inline LayerTimes
layerTimes(const std::vector<Span> &spans)
{
    LayerTimes out;
    std::map<uint64_t, const Span *> byId;
    for (const Span &s : spans)
        if (!s.probe)
            byId[s.id] = &s;
    std::map<uint64_t, int64_t> childNs;
    for (const Span &s : spans) {
        if (s.probe || s.parent == 0)
            continue;
        auto p = byId.find(s.parent);
        if (p != byId.end() && p->second->thread == s.thread)
            childNs[s.parent] += s.end - s.start;
        else
            out.coveredSeconds += (s.end - s.start) / 1e9;
    }
    for (const Span &s : spans) {
        if (s.probe)
            continue;
        if (s.parent == 0)
            out.coveredSeconds += (s.end - s.start) / 1e9;
        std::string layer = s.name.substr(0, s.name.find('.'));
        out.selfSeconds[layer] +=
            (s.end - s.start - childNs[s.id]) / 1e9;
    }
    return out;
}

} // namespace perfbench

#endif // GDIFF_PERFBENCH_TRACER_HH
