#include "workload/trace_cache.hh"

#include <chrono>
#include <cstdlib>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {

// ------------------------------------------------ MaterializedTrace

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::generate(const std::string &workload, uint64_t seed,
                            uint64_t maxRecords)
{
    auto trace = std::make_shared<MaterializedTrace>();
    Workload w = makeWorkload(workload, seed);
    auto exec = w.makeExecutor();
    trace->chunkList.reserve(
        static_cast<size_t>(maxRecords / TraceChunk::capacity) + 1);
    uint64_t remaining = maxRecords;
    while (remaining > 0) {
        auto chunk = std::make_unique<TraceChunk>();
        if (!exec->fill(*chunk))
            break;
        // The executor fills whole chunks; trim the final one to the
        // requested budget so the frozen stream ends exactly where a
        // live consumer would stop.
        if (chunk->size > remaining)
            chunk->size = static_cast<uint32_t>(remaining);
        remaining -= chunk->size;
        trace->recordCount += chunk->size;
        trace->chunkList.push_back(std::move(chunk));
    }
    return trace;
}

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::fromChunks(
    std::vector<std::unique_ptr<TraceChunk>> chunks)
{
    auto trace = std::make_shared<MaterializedTrace>();
    trace->chunkList = std::move(chunks);
    for (const auto &chunk : trace->chunkList)
        trace->recordCount += chunk->size;
    return trace;
}

// ------------------------------------------------ CachedTraceSource

CachedTraceSource::CachedTraceSource(
    std::shared_ptr<const MaterializedTrace> t)
    : trace(std::move(t))
{
    GDIFF_ASSERT(trace != nullptr,
                 "CachedTraceSource needs a materialized trace");
}

const TraceChunk *
CachedTraceSource::fillRef(TraceChunk &)
{
    const auto &chunks = trace->chunks();
    if (cursor >= chunks.size())
        return nullptr;
    return chunks[cursor++].get();
}

void
CachedTraceSource::rewind()
{
    cursor = 0;
}

// ------------------------------------------------------- TraceCache

TraceCache::TraceCache() : TraceCache(Config()) {}

TraceCache::TraceCache(const Config &config) : cfg(config)
{
    if (!cfg.diskRoot.empty())
        setDiskRoot(cfg.diskRoot, cfg.diskMaxBytes);
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    static std::once_flag once;
    std::call_once(once, [] {
        const char *dir = std::getenv("GDIFF_TRACE_CACHE_DIR");
        if (dir && *dir)
            cache.setDiskRoot(dir);
    });
    return cache;
}

void
TraceCache::setDiskRoot(const std::string &root, size_t maxBytes)
{
    std::shared_ptr<DiskTraceCache> tier;
    if (!root.empty()) {
        DiskTraceCache::Config dc;
        dc.root = root;
        dc.maxBytes = maxBytes;
        tier = std::make_shared<DiskTraceCache>(dc);
    }
    std::lock_guard<std::mutex> guard(lock);
    cfg.diskRoot = root;
    cfg.diskMaxBytes = maxBytes;
    disk = std::move(tier);
}

std::string
TraceCache::diskRoot() const
{
    std::lock_guard<std::mutex> guard(lock);
    return cfg.diskRoot;
}

TraceCache::Acquired
TraceCache::acquire(const std::string &workload, uint64_t seed,
                    uint64_t records)
{
    Key key{workload, seed, records};
    std::promise<std::shared_ptr<const MaterializedTrace>> promise;
    std::shared_future<std::shared_ptr<const MaterializedTrace>> fut;
    bool builder = false;

    {
        std::lock_guard<std::mutex> guard(lock);
        auto it = entries.find(key);
        if (it != entries.end()) {
            ++counters.hits;
            GDIFF_OBS_COUNT("trace_cache.hit", 1);
            if (it->second.bytes > 0) {
                // Finished entry: refresh its LRU position.
                lru.erase(it->second.lruPos);
                lru.push_back(key);
                it->second.lruPos = std::prev(lru.end());
            }
            fut = it->second.future;
        } else {
            builder = true;
            ++counters.misses;
            fut = promise.get_future().share();
            Entry e;
            e.future = fut;
            e.lruPos = lru.end();
            entries.emplace(key, std::move(e));
        }
    }

    Acquired out;
    if (builder) {
        GDIFF_OBS_COUNT("trace_cache.miss", 1);

        // A memory miss falls through to the persistent tier before
        // paying for a generation; fresh generations are persisted
        // for later processes.
        std::shared_ptr<DiskTraceCache> tier;
        {
            std::lock_guard<std::mutex> guard(lock);
            tier = disk;
        }
        std::shared_ptr<const MaterializedTrace> trace;
        if (tier) {
            trace = tier->load(workload, seed, records);
            out.fromDisk = (trace != nullptr);
        }
        if (!trace) {
            auto t0 = std::chrono::steady_clock::now();
            {
                obs::ScopedTimer obsGen("trace.generate",
                                        /*withSpan=*/true);
                obsGen.arg("workload", workload);
                trace = MaterializedTrace::generate(workload, seed,
                                                    records);
            }
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            out.generated = true;
            out.generateSeconds = dt.count();
            if (tier)
                tier->store(workload, seed, records, *trace);
        }
        promise.set_value(trace);

        std::lock_guard<std::mutex> guard(lock);
        if (out.generated)
            ++counters.generations;
        auto it = entries.find(key);
        if (it != entries.end()) {
            it->second.bytes = trace->bytes();
            residentBytes += trace->bytes();
            lru.push_back(key);
            it->second.lruPos = std::prev(lru.end());
            evictLocked();
        }
        out.source = std::make_unique<CachedTraceSource>(trace);
        return out;
    }

    // Another thread is (or was) the builder: wait for its trace.
    std::shared_ptr<const MaterializedTrace> trace = fut.get();
    out.source = std::make_unique<CachedTraceSource>(trace);
    return out;
}

void
TraceCache::evictLocked()
{
    if (cfg.maxBytes == 0)
        return;
    // Never evict the most-recent entry: a triple larger than the
    // whole cap still has to live long enough to be replayed.
    while (residentBytes > cfg.maxBytes && lru.size() > 1) {
        Key victim = lru.front();
        lru.pop_front();
        auto it = entries.find(victim);
        GDIFF_ASSERT(it != entries.end(),
                     "trace-cache LRU points at a missing entry");
        residentBytes -= it->second.bytes;
        entries.erase(it);
        ++counters.evictions;
    }
}

TraceCache::Stats
TraceCache::snapshot() const
{
    std::shared_ptr<DiskTraceCache> tier;
    Stats s;
    {
        std::lock_guard<std::mutex> guard(lock);
        s = counters;
        s.residentBytes = residentBytes;
        s.entries = entries.size();
        tier = disk;
    }
    if (tier) {
        DiskTraceCache::Stats d = tier->snapshot();
        s.diskEnabled = true;
        s.diskHits = d.hits;
        s.diskMisses = d.misses;
        s.diskStores = d.stores;
        s.diskEvictions = d.evictions;
        s.diskCorruptRecoveries = d.corruptRecoveries;
    }
    return s;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> guard(lock);
    entries.clear();
    lru.clear();
    residentBytes = 0;
    counters = Stats();
}

void
TraceCache::setMaxBytes(size_t bytes)
{
    std::lock_guard<std::mutex> guard(lock);
    cfg.maxBytes = bytes;
    evictLocked();
}

} // namespace workload
} // namespace gdiff
