#include "serve/daemon.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hh"
#include "runner/runner.hh"
#include "runner/sweep_spec.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace gdiff {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency histograms record microseconds; in-range to ~65 ms, with
/// the overflow bucket reporting the true maximum beyond that.
constexpr size_t kLatencyBuckets = 1 << 16;
constexpr size_t kDepthBuckets = 1 << 12;

/** Conform a client-supplied name to something safe to embed in obs
 * counter names and log lines. */
std::string
sanitizeClientName(const std::string &name)
{
    std::string out;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                  c == '.';
        out += ok ? c : '_';
        if (out.size() >= 48)
            break;
    }
    return out.empty() ? std::string("anon") : out;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // anonymous namespace

struct Daemon::Impl
{
    // ------------------------------------------------- data model

    struct Connection;

    /** One admitted submit request. */
    struct Sweep
    {
        uint64_t id = 0;
        std::string client;       ///< sanitized, for obs counters
        size_t total = 0;
        size_t remaining = 0;     ///< guarded by mu
        size_t generated = 0;     ///< guarded by mu
        size_t replayed = 0;      ///< guarded by mu
        Clock::time_point start;  ///< submit time, for request_us
    };

    struct PendingJob
    {
        runner::JobSpec spec;
        size_t index = 0; ///< grid index, matches gdiffrun's
        std::shared_ptr<Sweep> sweep;
    };

    struct Connection
    {
        Fd sock;
        std::string label;         ///< default name until a submit
        std::mutex writeMu;        ///< serialises outbound frames
        std::atomic<bool> alive{true};
        /// this client's admitted-job FIFO; guarded by mu
        std::deque<PendingJob> queue;
        bool inRotation = false;   ///< guarded by mu
    };

    explicit Impl(DaemonConfig config)
        : cfg(std::move(config)), cache(makeCacheConfig(cfg))
    {}

    static workload::TraceCache::Config
    makeCacheConfig(const DaemonConfig &config)
    {
        workload::TraceCache::Config c;
        if (config.traceCacheBytes != 0)
            c.maxBytes = config.traceCacheBytes;
        c.diskRoot = config.traceCacheDir;
        if (c.diskRoot.empty()) {
            const char *dir = std::getenv("GDIFF_TRACE_CACHE_DIR");
            if (dir)
                c.diskRoot = dir;
        }
        if (config.traceCacheDiskBytes != 0)
            c.diskMaxBytes = config.traceCacheDiskBytes;
        return c;
    }

    DaemonConfig cfg;
    workload::TraceCache cache; ///< shared across every request
    Clock::time_point startTime;

    Fd listener;
    std::thread acceptThread;
    std::vector<std::thread> workerThreads;
    std::vector<std::thread> readerThreads; ///< guarded by mu

    mutable std::mutex mu;
    std::condition_variable workCv;  ///< workers: rotation/drain
    std::condition_variable drainCv; ///< waitUntilDrained
    /// connections still open; guarded by mu
    std::list<std::shared_ptr<Connection>> connections;
    /// round-robin of connections with queued jobs; guarded by mu
    std::deque<std::shared_ptr<Connection>> rotation;
    size_t queuedJobs = 0;
    size_t runningJobs = 0;
    uint64_t completedJobs = 0;
    uint64_t droppedJobs = 0;
    uint64_t acceptedSweeps = 0;
    uint64_t rejectedSweeps = 0;
    uint64_t nextSweepId = 1;
    uint64_t nextClientId = 1;
    bool draining = false;
    bool started = false;
    bool joined = false;

    // ---------------------------------------------------- lifecycle

    bool
    start(std::string *error)
    {
        listener = listenUnix(cfg.socketPath, error);
        if (!listener.valid())
            return false;
        startTime = Clock::now();
        started = true;
        unsigned n = cfg.workers == 0 ? runner::defaultThreads()
                                      : cfg.workers;
        workerThreads.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            workerThreads.emplace_back([this] { workerLoop(); });
        acceptThread = std::thread([this] { acceptLoop(); });
        return true;
    }

    void
    requestDrain()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            if (draining)
                return;
            draining = true;
        }
        // Unblocks accept() with EINVAL; new clients see ECONNREFUSED
        // only after the socket file is unlinked at join time, but
        // the accept loop is already gone.
        if (listener.valid())
            ::shutdown(listener.get(), SHUT_RDWR);
        workCv.notify_all();
        // An idle daemon already satisfies the drain predicate, and
        // no worker or disconnect will come along to re-test it.
        drainCv.notify_all();
    }

    void
    waitUntilDrained()
    {
        if (!started || joined)
            return;
        {
            std::unique_lock<std::mutex> lk(mu);
            drainCv.wait(lk, [this] {
                return draining && queuedJobs == 0 && runningJobs == 0;
            });
        }
        acceptThread.join();
        workCv.notify_all();
        for (auto &w : workerThreads)
            w.join();
        // Idle clients sit in readFrame(); shutting their sockets
        // down turns that into EOF so every reader exits.
        {
            std::lock_guard<std::mutex> lk(mu);
            for (const auto &conn : connections) {
                conn->alive.store(false, std::memory_order_relaxed);
                ::shutdown(conn->sock.get(), SHUT_RDWR);
            }
        }
        for (auto &r : readerThreads)
            r.join();
        listener.reset();
        ::unlink(cfg.socketPath.c_str());
        joined = true;
    }

    // -------------------------------------------------- accept side

    void
    acceptLoop()
    {
        for (;;) {
            Fd sock = acceptUnix(listener.get());
            if (!sock.valid())
                return; // listener shut down: drain started
            std::lock_guard<std::mutex> lk(mu);
            if (draining)
                continue; // close immediately; no admissions now
            auto conn = std::make_shared<Connection>();
            conn->sock = std::move(sock);
            conn->label = "client-" + std::to_string(nextClientId++);
            connections.push_back(conn);
            readerThreads.emplace_back(
                [this, conn] { readerLoop(conn); });
        }
    }

    void
    readerLoop(const std::shared_ptr<Connection> &conn)
    {
        std::string payload;
        for (;;) {
            FrameStatus st = readFrame(conn->sock.get(), payload);
            if (st == FrameStatus::Ok) {
                handleRequest(conn, payload);
                continue;
            }
            // A framing-level failure is unrecoverable: an oversized
            // or short prefix means byte-sync with the peer is gone.
            // Say why (best effort) and drop the connection; the
            // daemon itself keeps serving everyone else.
            if (st == FrameStatus::TooLarge)
                sendTo(*conn,
                       errorMessage("frame length exceeds limit"));
            break;
        }
        disconnect(conn);
    }

    /** Purge a departed client: its queued jobs free their admission
     * slots immediately so a dead sweep cannot pin the queue. */
    void
    disconnect(const std::shared_ptr<Connection> &conn)
    {
        std::lock_guard<std::mutex> lk(mu);
        conn->alive.store(false, std::memory_order_relaxed);
        if (!conn->queue.empty()) {
            droppedJobs += conn->queue.size();
            queuedJobs -= conn->queue.size();
            GDIFF_OBS_COUNT("serve.jobs_dropped", conn->queue.size());
            for (const auto &job : conn->queue)
                --job.sweep->remaining;
            conn->queue.clear();
        }
        if (conn->inRotation) {
            rotation.erase(
                std::remove(rotation.begin(), rotation.end(), conn),
                rotation.end());
            conn->inRotation = false;
        }
        connections.remove(conn);
        if (draining && queuedJobs == 0 && runningJobs == 0)
            drainCv.notify_all();
    }

    /** Write one frame to @p conn; marks it dead on failure. */
    bool
    sendTo(Connection &conn, const std::string &msg)
    {
        if (!conn.alive.load(std::memory_order_relaxed))
            return false;
        std::lock_guard<std::mutex> lk(conn.writeMu);
        if (!conn.alive.load(std::memory_order_relaxed))
            return false;
        if (!writeFrame(conn.sock.get(), msg)) {
            conn.alive.store(false, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    // ----------------------------------------------------- requests

    void
    handleRequest(const std::shared_ptr<Connection> &conn,
                  const std::string &payload)
    {
        json::Value msg;
        std::string parseError;
        if (!json::parse(payload, msg, &parseError)) {
            // The frame boundary is intact, so a request that is
            // valid framing but garbage JSON is answerable: report
            // and keep the connection.
            sendTo(*conn, errorMessage("invalid JSON: " + parseError));
            return;
        }
        const json::Value *type =
            msg.isObject() ? msg.find("type") : nullptr;
        if (!type || !type->isString()) {
            sendTo(*conn,
                   errorMessage("request needs a string 'type'"));
            return;
        }
        if (type->str == "submit") {
            handleSubmit(conn, msg);
        } else if (type->str == "status") {
            sendTo(*conn, statusReply());
        } else if (type->str == "ping") {
            sendTo(*conn, "{\"type\":\"pong\"}");
        } else if (type->str == "shutdown") {
            sendTo(*conn, "{\"type\":\"shutting_down\"}");
            requestDrain();
        } else {
            sendTo(*conn,
                   errorMessage("unknown request type '" + type->str +
                                "'"));
        }
    }

    void
    handleSubmit(const std::shared_ptr<Connection> &conn,
                 const json::Value &msg)
    {
        const json::Value *grid = msg.find("grid");
        if (!grid || !grid->isString()) {
            sendTo(*conn,
                   errorMessage("submit needs a string 'grid'"));
            return;
        }

        runner::SweepSpec spec;
        std::string gridError;
        if (!runner::SweepSpec::tryParseGrid(grid->str, spec,
                                             &gridError)) {
            sendTo(*conn, errorMessage("bad grid: " + gridError));
            return;
        }
        if (const json::Value *v = msg.find("instructions")) {
            if (!v->isNumber() || v->number < 1) {
                sendTo(*conn, errorMessage(
                                  "'instructions' must be a positive "
                                  "number"));
                return;
            }
            spec.defaultInstructions =
                static_cast<uint64_t>(v->number);
            // An explicit budget overrides any instructions axis,
            // mirroring gdiffrun --instructions.
            spec.instructionWindows.clear();
        }
        if (const json::Value *v = msg.find("warmup")) {
            if (!v->isNumber() || v->number < 0) {
                sendTo(*conn, errorMessage(
                                  "'warmup' must be a non-negative "
                                  "number"));
                return;
            }
            spec.warmup = static_cast<uint64_t>(v->number);
        }
        // Sampled-simulation knobs; geometry errors (window longer
        // than the region, budget below one window) surface through
        // validateOr below like any other bad spec.
        if (const json::Value *v = msg.find("sample_budget")) {
            if (!v->isNumber() || v->number < 0) {
                sendTo(*conn, errorMessage(
                                  "'sample_budget' must be a "
                                  "non-negative number"));
                return;
            }
            spec.sampleBudget = static_cast<uint64_t>(v->number);
        }
        if (const json::Value *v = msg.find("sample_window")) {
            if (!v->isNumber() || v->number < 1) {
                sendTo(*conn, errorMessage(
                                  "'sample_window' must be a positive "
                                  "number"));
                return;
            }
            spec.sampleWindow = static_cast<uint64_t>(v->number);
        }
        if (const json::Value *v = msg.find("sample_seed")) {
            if (!v->isNumber() || v->number < 0) {
                sendTo(*conn, errorMessage(
                                  "'sample_seed' must be a "
                                  "non-negative number"));
                return;
            }
            spec.sampleSeed = static_cast<uint64_t>(v->number);
        }

        std::vector<runner::JobSpec> jobs = spec.expand();
        // Admission never hands a worker a spec that runJob could
        // fatal() on: rejecting it here is still a polite error frame.
        if (std::string jobError;
            !runner::validateJobs(jobs, &jobError)) {
            sendTo(*conn, errorMessage(jobError));
            return;
        }

        std::string client = "anon";
        if (const json::Value *v = msg.find("client");
            v && v->isString())
            client = sanitizeClientName(v->str);

        // The accepted/rejected ack is written under the connection
        // write lock *around* the enqueue, so no result frame can
        // overtake it (workers also write under that lock).
        std::lock_guard<std::mutex> wlk(conn->writeMu);
        std::string reply;
        {
            std::lock_guard<std::mutex> lk(mu);
            if (draining) {
                ++rejectedSweeps;
                reply = rejectedMessage("draining", queuedJobs,
                                        cfg.maxQueuedJobs);
            } else if (jobs.size() > cfg.maxQueuedJobs ||
                       queuedJobs + jobs.size() > cfg.maxQueuedJobs) {
                ++rejectedSweeps;
                GDIFF_OBS_COUNT("serve.sweeps_rejected", 1);
                reply = rejectedMessage("queue full", queuedJobs,
                                        cfg.maxQueuedJobs);
            } else {
                auto sweep = std::make_shared<Sweep>();
                sweep->id = nextSweepId++;
                sweep->client = client;
                sweep->total = jobs.size();
                sweep->remaining = jobs.size();
                sweep->start = Clock::now();
                for (size_t i = 0; i < jobs.size(); ++i)
                    conn->queue.push_back(
                        PendingJob{jobs[i], i, sweep});
                queuedJobs += jobs.size();
                if (!conn->inRotation) {
                    rotation.push_back(conn);
                    conn->inRotation = true;
                }
                ++acceptedSweeps;
                conn->label = client;
                if (obs::enabled()) {
                    obs::Registry &reg = obs::Registry::local();
                    reg.addCount("serve.jobs_enqueued", jobs.size());
                    reg.histogram("serve.queue_depth", kDepthBuckets)
                        ->record(queuedJobs);
                }
                reply = acceptedMessage(sweep->id, jobs.size());
                workCv.notify_all();
            }
        }
        if (conn->alive.load(std::memory_order_relaxed) &&
            !writeFrame(conn->sock.get(), reply))
            conn->alive.store(false, std::memory_order_relaxed);
    }

    // ------------------------------------------------------ workers

    void
    workerLoop()
    {
        for (;;) {
            std::shared_ptr<Connection> conn;
            PendingJob job;
            {
                std::unique_lock<std::mutex> lk(mu);
                workCv.wait(lk, [this] {
                    return !rotation.empty() || draining;
                });
                if (rotation.empty()) {
                    if (draining)
                        return;
                    continue;
                }
                // Round-robin: take ONE job from the head client,
                // then move it to the back of the rotation, so k
                // clients each get every k-th worker slot no matter
                // how large anyone's sweep is.
                conn = rotation.front();
                rotation.pop_front();
                job = std::move(conn->queue.front());
                conn->queue.pop_front();
                --queuedJobs;
                if (!conn->queue.empty())
                    rotation.push_back(conn);
                else
                    conn->inRotation = false;
                ++runningJobs;
            }
            runOne(*conn, job);
            {
                std::lock_guard<std::mutex> lk(mu);
                --runningJobs;
                ++completedJobs;
                if (draining && queuedJobs == 0 && runningJobs == 0)
                    drainCv.notify_all();
            }
            GDIFF_OBS_COUNT("serve.jobs_completed", 1);
        }
    }

    void
    runOne(Connection &conn, const PendingJob &job)
    {
        Clock::time_point t0 = Clock::now();
        runner::JobRecord rec{job.index, job.spec,
                              runner::runJob(job.spec, &cache)};
        if (obs::enabled()) {
            obs::Registry &reg = obs::Registry::local();
            reg.histogram("serve.job_us", kLatencyBuckets)
                ->record(static_cast<uint64_t>(secondsSince(t0) *
                                               1e6));
            reg.addCount("serve.client." + job.sweep->client +
                             (rec.result.traceReplayed
                                  ? ".trace_hit"
                                  : ".trace_miss"),
                         1);
        }

        bool delivered = sendTo(conn, jobMessage(job.sweep->id, rec));

        bool finished = false;
        size_t generated = 0, replayed = 0;
        {
            std::lock_guard<std::mutex> lk(mu);
            Sweep &sw = *job.sweep;
            if (rec.result.traceReplayed)
                ++sw.replayed;
            else
                ++sw.generated;
            if (--sw.remaining == 0) {
                finished = true;
                generated = sw.generated;
                replayed = sw.replayed;
            }
        }
        if (finished) {
            double wall = secondsSince(job.sweep->start);
            if (obs::enabled())
                obs::Registry::local()
                    .histogram("serve.request_us", kLatencyBuckets)
                    ->record(static_cast<uint64_t>(wall * 1e6));
            delivered =
                sendTo(conn, sweepDoneMessage(
                                 job.sweep->id, job.sweep->total,
                                 generated, replayed, wall)) &&
                delivered;
        }
        // A failed write means the client vanished mid-sweep; free
        // its remaining queue slots right away.
        (void)delivered;
    }

    // ------------------------------------------------------- status

    std::string
    statusReply() const
    {
        DaemonStats s = stats();
        char buf[512];
        std::string out = "{\"type\":\"status_ok\"";
        std::snprintf(
            buf, sizeof(buf),
            ",\"uptime_seconds\":%.3f,\"workers\":%u"
            ",\"draining\":%s,\"queued\":%zu,\"running\":%zu"
            ",\"completed\":%" PRIu64 ",\"dropped\":%" PRIu64
            ",\"accepted_sweeps\":%" PRIu64
            ",\"rejected_sweeps\":%" PRIu64 ",\"clients\":%zu"
            ",\"queue_capacity\":%zu",
            secondsSince(startTime),
            static_cast<unsigned>(workerThreads.size()),
            s.draining ? "true" : "false", s.queuedJobs,
            s.runningJobs, s.completedJobs, s.droppedJobs,
            s.acceptedSweeps, s.rejectedSweeps, s.connectedClients,
            cfg.maxQueuedJobs);
        out += buf;
        std::snprintf(
            buf, sizeof(buf),
            ",\"trace_cache\":{\"hits\":%" PRIu64
            ",\"misses\":%" PRIu64 ",\"generations\":%" PRIu64
            ",\"evictions\":%" PRIu64
            ",\"resident_bytes\":%zu,\"entries\":%zu}",
            s.traceCache.hits, s.traceCache.misses,
            s.traceCache.generations, s.traceCache.evictions,
            s.traceCache.residentBytes, s.traceCache.entries);
        out += buf;
        if (s.traceCache.diskEnabled) {
            std::snprintf(
                buf, sizeof(buf),
                ",\"trace_disk_cache\":{\"hits\":%" PRIu64
                ",\"misses\":%" PRIu64 ",\"stores\":%" PRIu64
                ",\"evictions\":%" PRIu64
                ",\"corrupt_recoveries\":%" PRIu64 "}",
                s.traceCache.diskHits, s.traceCache.diskMisses,
                s.traceCache.diskStores, s.traceCache.diskEvictions,
                s.traceCache.diskCorruptRecoveries);
            out += buf;
        }

        // Which batch kernel set this process dispatched to at
        // startup (GDIFF_SIMD / CPUID) — lets an operator confirm a
        // fleet is actually running the vector path.
        out += ",\"simd_dispatch\":\"";
        out += simd::activeName();
        out += '"';

        // Latency percentiles come from the merged obs histograms;
        // zeros when observability is off.
        obs::Snapshot snap = obs::snapshot();
        auto emitLatency = [&](const char *key, const char *hist) {
            double p50 = 0, p99 = 0;
            uint64_t count = 0;
            auto it = snap.histograms.find(hist);
            if (it != snap.histograms.end()) {
                count = it->second.samples();
                p50 = it->second.percentile(0.50) / 1e3;
                p99 = it->second.percentile(0.99) / 1e3;
            }
            std::snprintf(buf, sizeof(buf),
                          ",\"%s\":{\"count\":%" PRIu64
                          ",\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                          key, count, p50, p99);
            out += buf;
        };
        emitLatency("request_ms", "serve.request_us");
        emitLatency("job_ms", "serve.job_us");
        out += '}';
        return out;
    }

    DaemonStats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu);
        DaemonStats s;
        s.queuedJobs = queuedJobs;
        s.runningJobs = runningJobs;
        s.completedJobs = completedJobs;
        s.droppedJobs = droppedJobs;
        s.acceptedSweeps = acceptedSweeps;
        s.rejectedSweeps = rejectedSweeps;
        s.connectedClients = connections.size();
        s.draining = draining;
        s.traceCache = cache.snapshot();
        return s;
    }
};

// ------------------------------------------------------- Daemon API

Daemon::Daemon(DaemonConfig config)
    : impl(new Impl(std::move(config))),
      cfgSocketPath(impl->cfg.socketPath)
{}

Daemon::~Daemon()
{
    if (impl->started && !impl->joined) {
        requestDrain();
        waitUntilDrained();
    }
    delete impl;
}

bool
Daemon::start(std::string *error)
{
    return impl->start(error);
}

void
Daemon::requestDrain()
{
    impl->requestDrain();
}

void
Daemon::waitUntilDrained()
{
    impl->waitUntilDrained();
}

DaemonStats
Daemon::stats() const
{
    return impl->stats();
}

unsigned
Daemon::workers() const
{
    return static_cast<unsigned>(impl->workerThreads.size());
}

} // namespace serve
} // namespace gdiff
