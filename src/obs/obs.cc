#include "obs/obs.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "stats/table.hh"
#include "util/logging.hh"

namespace gdiff {
namespace obs {

namespace detail {
std::atomic<bool> gEnabled{false};
} // namespace detail

void
setEnabled(bool on)
{
    if (on)
        nowNs(); // pin the epoch before any worker thread races to it
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

uint64_t
nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

// ------------------------------------------------- global registry set

namespace {

/**
 * Registries are heap-allocated and owned by this process-wide list so
 * they outlive their threads: snapshot() after a worker joins still
 * sees everything the worker recorded. The list only grows (one entry
 * per thread that ever touched obs), which is bounded by thread count.
 */
struct RegistryList
{
    std::mutex mu;
    std::vector<std::unique_ptr<Registry>> all;
};

RegistryList &
registryList()
{
    static RegistryList *list = new RegistryList; // never destroyed:
    // worker threads may outlive static destruction order otherwise
    return *list;
}

} // anonymous namespace

Registry::Registry() = default;

Registry &
Registry::local()
{
    thread_local Registry *mine = [] {
        RegistryList &list = registryList();
        std::lock_guard<std::mutex> guard(list.mu);
        list.all.push_back(std::unique_ptr<Registry>(new Registry));
        Registry *r = list.all.back().get();
        r->threadId = static_cast<uint32_t>(list.all.size() - 1);
        return r;
    }();
    return *mine;
}

std::atomic<uint64_t> *
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> guard(mu);
    auto it = counters.find(name);
    if (it == counters.end())
        it = counters.try_emplace(std::string(name)).first;
    return &it->second;
}

void
Registry::addCount(std::string_view name, uint64_t n)
{
    counter(name)->fetch_add(n, std::memory_order_relaxed);
}

void
Registry::addTimer(std::string_view name, uint64_t ns, uint64_t calls)
{
    std::lock_guard<std::mutex> guard(mu);
    auto it = timers.find(name);
    if (it == timers.end())
        it = timers.try_emplace(std::string(name)).first;
    it->second.calls += calls;
    it->second.totalNs += ns;
}

uint64_t
Registry::timerNs(std::string_view name) const
{
    std::lock_guard<std::mutex> guard(mu);
    auto it = timers.find(name);
    return it == timers.end() ? 0 : it->second.totalNs;
}

stats::Histogram *
Registry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> guard(mu);
    auto it = histograms.find(name);
    if (it == histograms.end())
        it = histograms.try_emplace(std::string(name)).first;
    return &it->second;
}

void
Registry::addSpan(std::string name, uint64_t startNs, uint64_t durNs,
                  std::vector<std::pair<std::string, std::string>> args)
{
    std::lock_guard<std::mutex> guard(mu);
    if (spans.size() >= maxSpans) {
        ++spansDropped;
        return;
    }
    SpanEvent ev;
    ev.name = std::move(name);
    ev.startNs = startNs;
    ev.durNs = durNs;
    ev.tid = threadId;
    ev.args = std::move(args);
    spans.push_back(std::move(ev));
}

// ------------------------------------------------------ aggregation

Snapshot
snapshot()
{
    Snapshot snap;
    RegistryList &list = registryList();
    std::lock_guard<std::mutex> listGuard(list.mu);
    for (const auto &reg : list.all) {
        std::lock_guard<std::mutex> guard(reg->mu);
        for (const auto &[name, value] : reg->counters) {
            snap.counters[name] +=
                value.load(std::memory_order_relaxed);
        }
        if (reg->spansDropped > 0)
            snap.counters["obs.spans_dropped"] += reg->spansDropped;
        for (const auto &[name, stat] : reg->timers) {
            TimerStat &dst = snap.timers[name];
            dst.calls += stat.calls;
            dst.totalNs += stat.totalNs;
        }
        for (const auto &[name, hist] : reg->histograms)
            snap.histograms[name].merge(hist);
        snap.spans.insert(snap.spans.end(), reg->spans.begin(),
                          reg->spans.end());
    }
    return snap;
}

void
reset()
{
    RegistryList &list = registryList();
    std::lock_guard<std::mutex> listGuard(list.mu);
    for (const auto &reg : list.all) {
        std::lock_guard<std::mutex> guard(reg->mu);
        for (auto &[name, value] : reg->counters) {
            (void)name;
            value.store(0, std::memory_order_relaxed);
        }
        reg->timers.clear();
        reg->histograms.clear();
        reg->spans.clear();
        reg->spansDropped = 0;
    }
}

void
printSummary(std::ostream &os)
{
    printSummary(os, snapshot());
}

void
printSummary(std::ostream &os, const Snapshot &snap)
{
    stats::Table stages("obs stage summary", "stage");
    stages.addColumn("calls");
    stages.addColumn("total s");
    stages.addColumn("mean us");
    for (const auto &[name, stat] : snap.timers) {
        stages.beginRow(name);
        stages.cellInt(static_cast<long long>(stat.calls));
        stages.cellDouble(stat.seconds(), 3);
        stages.cellDouble(stat.calls > 0
                              ? static_cast<double>(stat.totalNs) /
                                    static_cast<double>(stat.calls) /
                                    1e3
                              : 0.0,
                          1);
    }
    stages.print(os);

    if (!snap.counters.empty()) {
        stats::Table counts("obs counters", "counter");
        counts.addColumn("value");
        for (const auto &[name, value] : snap.counters) {
            counts.beginRow(name);
            counts.cellInt(static_cast<long long>(value));
        }
        counts.print(os);
    }

    if (!snap.histograms.empty()) {
        stats::Table hists("obs histograms", "histogram");
        hists.addColumn("samples");
        hists.addColumn("mean");
        hists.addColumn("p50");
        hists.addColumn("p95");
        hists.addColumn("max");
        for (const auto &[name, h] : snap.histograms) {
            hists.beginRow(name);
            hists.cellInt(static_cast<long long>(h.samples()));
            hists.cellDouble(h.mean(), 1);
            hists.cellInt(static_cast<long long>(h.percentile(0.50)));
            hists.cellInt(static_cast<long long>(h.percentile(0.95)));
            hists.cellInt(static_cast<long long>(h.maxSample()));
        }
        hists.print(os);
    }
}

} // namespace obs
} // namespace gdiff
