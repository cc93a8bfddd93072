/**
 * @file
 * Process-wide cache of materialized dynamic traces.
 *
 * Every sweep job that shares a (workload, seed, record-budget)
 * triple re-executes the same kernel and consumes the identical
 * record stream. The TraceCache amortizes that: the first job to ask
 * for a triple runs the functional Executor once and freezes the
 * stream into an immutable chunked buffer; every later request —
 * including concurrent requests from other runner threads — replays
 * the shared buffer read-only through a cursor source.
 *
 * Guarantees:
 *  - exactly-once generation: concurrent acquires of the same triple
 *    block on the first requester's materialization instead of
 *    re-executing (a per-entry shared_future is the rendezvous);
 *  - determinism: a replayed stream is record-identical to a freshly
 *    generated one, so per-job metrics are bit-identical with the
 *    cache on or off, at any thread count;
 *  - bounded footprint: entries are LRU-evicted once the configured
 *    byte cap is exceeded. Evicted traces stay alive (shared_ptr)
 *    until their last in-flight replayer finishes.
 */

#ifndef GDIFF_WORKLOAD_TRACE_CACHE_HH
#define GDIFF_WORKLOAD_TRACE_CACHE_HH

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace gdiff {
namespace workload {

class DiskTraceCache;

/**
 * An immutable materialized trace: the first @c records() records of
 * one (workload, seed) stream, stored as a vector of SoA chunks.
 * Shared read-only between any number of replaying jobs.
 */
class MaterializedTrace
{
  public:
    /**
     * Execute @p workload (makeWorkload(@p workload, @p seed)) and
     * freeze its first @p maxRecords records. Fewer are stored if the
     * program halts first.
     */
    static std::shared_ptr<const MaterializedTrace>
    generate(const std::string &workload, uint64_t seed,
             uint64_t maxRecords);

    /**
     * Adopt already-decoded chunks (the disk tier's loader). The
     * stream must be in order; record count is the sum of the chunk
     * sizes.
     */
    static std::shared_ptr<const MaterializedTrace>
    fromChunks(std::vector<std::unique_ptr<TraceChunk>> chunks);

    /** @return the frozen chunks, in stream order. */
    const std::vector<std::unique_ptr<TraceChunk>> &chunks() const
    {
        return chunkList;
    }

    /** @return records stored. */
    uint64_t records() const { return recordCount; }

    /** @return approximate resident bytes (for the cache cap). */
    size_t bytes() const
    {
        return chunkList.size() * sizeof(TraceChunk);
    }

  private:
    std::vector<std::unique_ptr<TraceChunk>> chunkList;
    uint64_t recordCount = 0;
};

/**
 * Replays a MaterializedTrace as a TraceSource. Holds a shared
 * reference, so the trace outlives any cache eviction while a replay
 * is in flight. fillRef() hands out the frozen chunks themselves;
 * nothing in the shared trace is ever written.
 */
class CachedTraceSource : public TraceSource
{
  public:
    explicit CachedTraceSource(
        std::shared_ptr<const MaterializedTrace> trace);

    /** Hands out the frozen chunk itself: replay never copies. */
    const TraceChunk *fillRef(TraceChunk &scratch) override;

    /** Rewind to the first record (multi-pass experiments). */
    void rewind();

  private:
    std::shared_ptr<const MaterializedTrace> trace;
    size_t cursor = 0; ///< next chunk index
};

/** The shared trace cache. */
class TraceCache
{
  public:
    struct Config
    {
        /// byte cap before LRU eviction; 0 = unbounded
        size_t maxBytes = size_t(512) << 20;
        /// persistent tier root directory; empty = memory-only
        std::string diskRoot;
        /// byte cap for the persistent tier
        size_t diskMaxBytes = size_t(2) << 30;
    };

    /** Point-in-time counters (monotonic except residentBytes). */
    struct Stats
    {
        uint64_t hits = 0;        ///< served from a resident trace
        /// lookups that found no entry (every miss falls through to
        /// the disk tier and then to a generation)
        uint64_t misses = 0;
        uint64_t generations = 0; ///< functional materializations
        uint64_t evictions = 0;   ///< entries dropped by LRU
        size_t residentBytes = 0; ///< bytes currently cached
        size_t entries = 0;       ///< triples currently cached

        /// @name persistent tier (all zero when diskEnabled is false)
        /// @{
        bool diskEnabled = false;
        uint64_t diskHits = 0;
        uint64_t diskMisses = 0;
        uint64_t diskStores = 0;
        uint64_t diskEvictions = 0;
        uint64_t diskCorruptRecoveries = 0;
        /// @}
    };

    /** What acquire() hands back, with generate-vs-replay metadata. */
    struct Acquired
    {
        std::unique_ptr<TraceSource> source;
        /// true when *this call* materialized the trace
        bool generated = false;
        /// true when *this call* loaded the trace from the disk tier
        bool fromDisk = false;
        /// wall seconds this call spent generating (0 on replay)
        double generateSeconds = 0.0;
    };

    TraceCache();
    explicit TraceCache(const Config &config);

    /**
     * Get a replay source for the first @p records records of
     * (workload, seed). Thread-safe; the first requester of a triple
     * materializes, concurrent requesters wait for it.
     */
    Acquired acquire(const std::string &workload, uint64_t seed,
                     uint64_t records);

    /**
     * @return a point-in-time snapshot of the counters. Printed by
     * the gdiffrun summary and served by the gdiffd status endpoint.
     */
    Stats snapshot() const;

    /** Drop every entry and reset the counters (tests). */
    void clear();

    /** Change the byte cap; evicts immediately if now exceeded. */
    void setMaxBytes(size_t bytes);

    /**
     * Attach (or, with an empty @p root, detach) the persistent disk
     * tier. Misses fall through to disk before generating, and fresh
     * generations are persisted for later processes.
     */
    void setDiskRoot(const std::string &root,
                     size_t maxBytes = size_t(2) << 30);

    /** @return the disk tier root, or empty when detached. */
    std::string diskRoot() const;

    /**
     * The process-wide instance the sweep runner uses. On first use
     * the GDIFF_TRACE_CACHE_DIR environment variable, when set and
     * non-empty, attaches the persistent tier.
     */
    static TraceCache &global();

  private:
    struct Key
    {
        std::string workload;
        uint64_t seed;
        uint64_t records;

        bool
        operator<(const Key &o) const
        {
            if (workload != o.workload)
                return workload < o.workload;
            if (seed != o.seed)
                return seed < o.seed;
            return records < o.records;
        }
    };

    struct Entry
    {
        std::shared_future<std::shared_ptr<const MaterializedTrace>>
            future;
        size_t bytes = 0; ///< 0 until materialization finishes
        std::list<Key>::iterator lruPos;
    };

    /** Evict LRU entries until under the cap. Caller holds @c lock. */
    void evictLocked();

    mutable std::mutex lock;
    Config cfg;
    /// persistent tier; shared_ptr so acquire() can use it unlocked
    std::shared_ptr<DiskTraceCache> disk;
    std::map<Key, Entry> entries;
    /// LRU order, most recent at the back; only finished entries
    std::list<Key> lru;
    size_t residentBytes = 0;
    Stats counters;
};

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_TRACE_CACHE_HH
