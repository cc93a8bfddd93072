/**
 * @file
 * gdiff_perfbench — the repository's end-to-end benchmark.
 *
 * One process runs one workload for a fixed time and prints its
 * metrics; perfbench/run.py builds this binary and starts one process
 * per run, so peak memory is the workload's own.
 *
 *   pipeline_sweep  full-trace OOO pipeline runs of four kernels under
 *                   four VP schemes through runner::SweepRunner
 *   profile_sweep   value-profile runs of all ten kernels under four
 *                   predictors through runner::SweepRunner
 *   sampled_sweep   stratified sampled pipeline runs over 8M-record
 *                   regions through runner::SweepRunner
 *   serve_mixed     an in-process serve::Daemon under an open-loop
 *                   arrival schedule, driven through serve::Client
 *
 * Every job result is checked against the digests recorded in
 * perfbench/expected/ (see --record); a mismatch counts the job as
 * failed. With --trace 1 the run instead re-executes the workload's
 * calls into each layer from this file, wrapped in spans, and prints
 * the per-layer metrics (see perfbench/README.md).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tracer.hh"
#include "pipeline/config.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "sample/sample.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "sim/profile.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "util/varint.hh"
#include "workload/trace_cache.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

using namespace gdiff;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ inputs

/// Kernel seeds a run may draw; --record covers every one of them.
constexpr uint64_t kSweepSeedPool = 4;
constexpr uint64_t kServeSeedPool = 64;

const std::vector<std::string> kPipelineKernels = {"mcf", "gzip",
                                                   "parser", "gap"};
const std::vector<std::string> kPipelineSchemes = {
    "baseline", "l_stride", "sgvq", "hgvq"};
constexpr uint64_t kPipelineInstructions = 4'000'000;
constexpr uint64_t kPipelineWarmup = 200'000;

const std::vector<std::string> kPredictors = {"stride", "dfcm", "gfcm",
                                              "gdiff"};
constexpr uint64_t kProfileInstructions = 4'000'000;
constexpr uint64_t kProfileWarmup = 200'000;

const std::vector<std::string> kSampledKernels = {"mcf", "gzip", "gcc",
                                                  "twolf"};
const std::vector<std::string> kSampledSchemes = {"baseline", "hgvq"};
// warmup + measured = 8M records: one trace is just under the trace
// cache's 512 MiB default cap, so four kernels thrash it.
constexpr uint64_t kSampledInstructions = 7'800'000;
constexpr uint64_t kSampledWarmup = 200'000;
constexpr uint64_t kSampledBudget = 40'960;
constexpr uint64_t kSampledWindow = 4'096;

constexpr uint64_t kServeInstructions = 450'000;
constexpr uint64_t kServeWarmup = 50'000;
constexpr size_t kServeMemoryKeys = 4;
constexpr size_t kServeDiskKeys = 8;
/// requests per block of ten that use each key group. The shares put
/// p50 inside the disk-key latencies and p90 inside the fresh-key
/// ones, away from the jumps between groups.
constexpr size_t kServeBlockMemory = 3;
constexpr size_t kServeBlockDisk = 5;
constexpr size_t kServeBlockFresh = 2;
/// daemon memory tier: about eight request traces, so the disk-group
/// keys are evicted between uses and keep coming back from disk
constexpr size_t kServeCacheBytes = size_t(256) << 20;
constexpr size_t kServeDiskBytes = size_t(1) << 30;

/// open-loop arrival rate, about half of the ~36 requests/s four
/// closed-loop connections sustained on a 4-core x86-64 host
constexpr double kServeRate = 18.0;

/// set-up repetitions per run; setup_s is their median. A sweep's
/// set-up takes milliseconds, the daemon's seconds.
constexpr int kSweepSetupReps = 9;
constexpr int kServeSetupReps = 3;

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
stringSeed(const std::string &s)
{
    return codec::fnv1a(s.data(), s.size());
}

/** The pool seed a run with @p seed uses for @p kernel. */
uint64_t
kernelSeed(uint64_t seed, const std::string &kernel)
{
    return 1 + mixSeed(seed, stringSeed(kernel)) % kSweepSeedPool;
}

runner::JobSpec
baseSpec(const std::string &kernel, uint64_t seed)
{
    runner::JobSpec s;
    s.workload = kernel;
    s.seed = seed;
    return s;
}

/** Jobs of one sweep workload for every kernel seed in @p seeds. */
std::vector<runner::JobSpec>
sweepJobs(const std::string &workload,
          const std::function<uint64_t(const std::string &)> &seedOf)
{
    std::vector<runner::JobSpec> jobs;
    if (workload == "pipeline_sweep") {
        for (const auto &k : kPipelineKernels)
            for (const auto &sc : kPipelineSchemes) {
                runner::JobSpec s = baseSpec(k, seedOf(k));
                s.mode = runner::JobMode::Pipeline;
                s.scheme = sc;
                s.instructions = kPipelineInstructions;
                s.warmup = kPipelineWarmup;
                jobs.push_back(s);
            }
    } else if (workload == "profile_sweep") {
        for (const auto &k : workload::specWorkloadNames())
            for (const auto &p : kPredictors) {
                runner::JobSpec s = baseSpec(k, seedOf(k));
                s.predictor = p;
                s.instructions = kProfileInstructions;
                s.warmup = kProfileWarmup;
                jobs.push_back(s);
            }
    } else if (workload == "sampled_sweep") {
        for (const auto &k : kSampledKernels)
            for (const auto &sc : kSampledSchemes) {
                runner::JobSpec s = baseSpec(k, seedOf(k));
                s.mode = runner::JobMode::Pipeline;
                s.scheme = sc;
                s.instructions = kSampledInstructions;
                s.warmup = kSampledWarmup;
                s.sampleBudget = kSampledBudget;
                s.sampleWindow = kSampledWindow;
                jobs.push_back(s);
            }
    }
    return jobs;
}

// -------------------------------------------------- expected outputs

/** @return the FNV-1a digest of @p rec's deterministic payload, with
 *  the grid index zeroed so the digest depends on the spec alone. */
std::string
recordDigest(runner::JobRecord rec)
{
    rec.index = 0;
    std::string det = runner::JsonlSink::deterministicJson(rec);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  codec::fnv1a(det.data(), det.size()));
    return buf;
}

/** Recorded outputs: job key -> digest, and full-run reference IPCs
 *  for sampled jobs. */
struct Expected
{
    std::map<std::string, std::string> digest;
    std::map<std::string, double> refIpc;
};

std::string
expectedPath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".tsv";
}

bool
loadExpected(const std::string &path, Expected &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cols;
        std::stringstream ss(line);
        std::string c;
        while (std::getline(ss, c, '\t'))
            cols.push_back(c);
        if (cols.size() < 2)
            return false;
        out.digest[cols[0]] = cols[1];
        if (cols.size() >= 3)
            out.refIpc[cols[0]] = std::strtod(cols[2].c_str(), nullptr);
    }
    return !out.digest.empty();
}

/** Counts attempted and failed operations against the expectations. */
class Checker
{
  public:
    /** @param verify false accepts every record (probe traffic,
     *  whose inputs are outside the recorded pool). */
    explicit Checker(const Expected &e, bool verify = true)
        : exp(e), verifying(verify)
    {}

    /** @return true when @p rec matches its recorded digest. */
    bool matches(const runner::JobRecord &rec) const
    {
        if (!verifying)
            return true;
        auto it = exp.digest.find(rec.spec.key());
        return it != exp.digest.end() && it->second == recordDigest(rec);
    }

    /** Count one operation; @return @p ok. */
    bool count(bool ok)
    {
        std::lock_guard<std::mutex> g(lock);
        ++attemptedOps;
        if (!ok)
            ++failedOps;
        return ok;
    }

    size_t attempted() const { return attemptedOps; }
    size_t failed() const { return failedOps; }

  private:
    const Expected &exp;
    bool verifying;
    std::mutex lock;
    size_t attemptedOps = 0; // guarded by lock
    size_t failedOps = 0;    // guarded by lock
};

/**
 * The check's self-test: a copy of @p rec with one metric nudged by
 * one part in 1e12 must be counted as failed by a fresh Checker.
 */
bool
selfTest(const Expected &exp, const runner::JobRecord &rec)
{
    if (rec.result.metrics.empty())
        return false;
    runner::JobRecord bad = rec;
    bad.result.metrics[0].second *= 1.0 + 1e-12;
    bad.result.metrics[0].second += 1e-300;
    Checker c(exp);
    c.count(c.matches(bad));
    bool counted = c.failed() == 1 && c.attempted() == 1;
    std::printf("self-test: perturbed %s of %s; counted as failed: %s\n",
                rec.result.metrics[0].first.c_str(),
                rec.spec.label().c_str(), counted ? "yes" : "NO");
    return counted;
}

// ------------------------------------------------------------ output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Start a new resident-memory high-water window: return freed heap to
 * the OS, then reset the kernel's peak (VmHWM) to the current RSS.
 * @return false when the kernel does not support the reset.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/** @return the process's resident high-water mark in MiB (since the
 *  last resetPeakRss()). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::string
describe(const char *what, const std::vector<double> &v, double scale,
         const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: p50 %.4g %s, p90 %.4g %s, n=%zu", what,
                  quantile(v, 0.5) * scale, unit,
                  quantile(v, 0.9) * scale, unit, v.size());
    return buf;
}

// ------------------------------------------------------------- options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    uint64_t arrivalSeed = 0; ///< 0 = derive from seed
    unsigned seconds = 10;
    bool trace = false;
    bool record = false;
    std::string expectedDir = "perfbench/expected";
    std::string workDir = ".bench_build/run";
    /// worker threads and client connections: min(4, nproc)
    unsigned threads = std::min(4u, runner::defaultThreads());
};

// ------------------------------------------------------ sweep workloads

/** Sink that keeps every record and when it reached the sink. */
class TimedSink : public runner::ResultSink
{
  public:
    explicit TimedSink(Clock::time_point start) : t0(start) {}

    void onJob(const runner::JobRecord &rec) override
    {
        records.push_back(rec);
        arrivals.push_back(secondsSince(t0));
    }

    std::vector<runner::JobRecord> records;
    std::vector<double> arrivals; ///< seconds since sweep start

  private:
    Clock::time_point t0;
};

struct SweepOutcome
{
    std::vector<double> minstPerS; ///< one per sweep
    std::vector<double> peakRssMb; ///< one per sweep
    std::vector<double> jobDoneS;  ///< job completion since sweep start
    std::vector<double> ipcErrPct; ///< sampled only, per job
    size_t covered = 0;            ///< sampled jobs inside their CI
    size_t sampledJobs = 0;
    runner::JobRecord sample;      ///< one record for the self-test
    workload::TraceCache::Stats cache;
};

uint64_t
simulatedRecords(const std::vector<runner::JobSpec> &jobs)
{
    uint64_t n = 0;
    for (const auto &j : jobs)
        n += j.instructions + j.warmup;
    return n;
}

/** Check one sampled record's IPC against its full-run reference. */
void
scoreSampled(const Expected &exp, const runner::JobRecord &rec,
             SweepOutcome &out)
{
    auto ref = exp.refIpc.find(rec.spec.key());
    if (ref == exp.refIpc.end())
        return;
    double ipc = rec.result.metric("ipc");
    out.ipcErrPct.push_back(std::fabs(ipc - ref->second) /
                            ref->second * 100.0);
    ++out.sampledJobs;
    if (rec.result.metric("ipc_ci_lo") <= ref->second &&
        ref->second <= rec.result.metric("ipc_ci_hi"))
        ++out.covered;
}

/**
 * Run the whole sweep through SweepRunner, each time from a cleared
 * trace cache (gdiffrun users pay generation on every sweep), until
 * @p seconds have passed.
 */
SweepOutcome
runSweeps(const std::vector<runner::JobSpec> &jobs, const Options &opt,
          const Expected &exp, Checker &checker)
{
    SweepOutcome out;
    const uint64_t records = simulatedRecords(jobs);
    auto runStart = Clock::now();
    do {
        workload::TraceCache::global().clear();
        resetPeakRss();
        auto t0 = Clock::now();
        TimedSink sink(t0);
        runner::SweepRunner sweep(jobs);
        sweep.addSink(sink);
        runner::SweepOptions so;
        so.threads = opt.threads;
        runner::SweepSummary summary = sweep.run(so);
        out.peakRssMb.push_back(peakRssMb());
        out.cache = workload::TraceCache::global().snapshot();
        out.minstPerS.push_back(static_cast<double>(records) / 1e6 /
                                summary.wallSeconds);
        out.jobDoneS.insert(out.jobDoneS.end(), sink.arrivals.begin(),
                            sink.arrivals.end());
        for (const auto &rec : sink.records) {
            checker.count(checker.matches(rec));
            if (rec.spec.sampled())
                scoreSampled(exp, rec, out);
        }
        for (size_t i = summary.ranJobs; i < jobs.size(); ++i)
            checker.count(false); // canceled or never dispatched
        if (!sink.records.empty())
            out.sample = sink.records.front();
        std::printf("sweep: %zu jobs in %.3f s = %.3f Minst/s, "
                    "%zu traces generated\n",
                    summary.ranJobs, summary.wallSeconds,
                    out.minstPerS.back(), summary.generatedTraces);
    } while (secondsSince(runStart) < opt.seconds);
    workload::TraceCache::global().clear();
    return out;
}

/**
 * The sweeps' set-up: what a sweep pays before its pool starts —
 * validate every spec and build the kernel images. Images are built
 * for every pool seed of each kernel, so the work is the same
 * whichever seeds this run drew. @return seconds taken.
 */
double
sweepSetup(const std::vector<runner::JobSpec> &jobs)
{
    auto t0 = Clock::now();
    std::set<std::string> kernels;
    for (const auto &j : jobs) {
        std::string err;
        if (!j.validateOr(&err)) {
            std::fprintf(stderr, "perfbench: bad job: %s\n", err.c_str());
            std::exit(1);
        }
        kernels.insert(j.workload);
    }
    for (const auto &k : kernels)
        for (uint64_t s = 1; s <= kSweepSeedPool; ++s)
            if (workload::makeWorkload(k, s).program.size() == 0) {
                std::fprintf(stderr, "perfbench: empty kernel %s\n",
                             k.c_str());
                std::exit(1);
            }
    return secondsSince(t0);
}

// ------------------------------------------------------- serve_mixed

struct ServeKey
{
    std::string kernel;
    uint64_t seed = 0;
};

enum class KeyGroup { Memory, Disk, Fresh };

struct ServeRequest
{
    double due = 0; ///< seconds after the schedule starts
    ServeKey key;
    std::vector<std::string> predictors;
    KeyGroup group = KeyGroup::Memory;
};

struct ServePlan
{
    std::vector<ServeKey> memoryKeys, diskKeys;
    std::vector<ServeRequest> requests;
};

/**
 * The request mix comes from @p seed, the arrival times (a Poisson
 * process at kServeRate per second) from @p arrivalSeed.
 */
ServePlan
makeServePlan(uint64_t seed, uint64_t arrivalSeed, double seconds)
{
    ServePlan plan;
    Xorshift64Star rng(mixSeed(seed, 0x5e77e));
    // Each group has fixed kernels, so the seed moves only kernel data
    // seeds and the order of requests, not how costly the mix is.
    std::vector<std::vector<uint64_t>> seeds;
    const auto &kernels = workload::specWorkloadNames();
    for (size_t k = 0; k < kernels.size(); ++k) {
        std::vector<uint64_t> s;
        for (uint64_t v = 1; v <= kServeSeedPool; ++v)
            s.push_back(v);
        for (size_t i = s.size(); i > 1; --i)
            std::swap(s[i - 1], s[rng.below(i)]);
        seeds.push_back(s);
    }
    std::vector<size_t> used(kernels.size(), 0);
    auto take = [&](size_t k) {
        ServeKey key{kernels[k], seeds[k][used[k]]};
        // A pool this size outlasts any run; wrapping would only turn
        // late fresh keys into cache hits.
        used[k] = (used[k] + 1) % kServeSeedPool;
        return key;
    };
    for (size_t i = 0; i < kServeMemoryKeys; ++i)
        plan.memoryKeys.push_back(take(i * kernels.size() / kServeMemoryKeys));
    for (size_t i = 0; i < kServeDiskKeys; ++i)
        plan.diskKeys.push_back(take(i % kernels.size()));

    Xorshift64Star arrivals(mixSeed(arrivalSeed, 0xa4417a1));
    // Groups come in shuffled blocks with exact shares, so the mix —
    // and with it where p50 and p90 fall — does not drift with the
    // seed. Within a group, requests alternate one and two predictors.
    std::vector<KeyGroup> block;
    block.insert(block.end(), kServeBlockMemory, KeyGroup::Memory);
    block.insert(block.end(), kServeBlockDisk, KeyGroup::Disk);
    block.insert(block.end(), kServeBlockFresh, KeyGroup::Fresh);
    size_t perGroup[3] = {0, 0, 0};
    // A Poisson process conditioned on its count: the run always
    // offers rate x seconds requests, at uniformly scattered times.
    const size_t count = static_cast<size_t>(kServeRate * seconds + 0.5);
    std::vector<double> due(count);
    for (double &d : due)
        d = arrivals.nextDouble() * seconds;
    std::sort(due.begin(), due.end());
    for (size_t n = 0; n < count; ++n) {
        if (n % block.size() == 0)
            for (size_t i = block.size(); i > 1; --i)
                std::swap(block[i - 1], block[rng.below(i)]);
        ServeRequest r;
        r.due = due[n];
        r.group = block[n % block.size()];
        size_t nth = perGroup[static_cast<int>(r.group)]++;
        if (r.group == KeyGroup::Memory)
            r.key = plan.memoryKeys[rng.below(kServeMemoryKeys)];
        else if (r.group == KeyGroup::Disk)
            r.key = plan.diskKeys[rng.below(kServeDiskKeys)];
        else
            r.key = take(nth % kernels.size());
        // Predictors cycle; every other request of a group adds the
        // next one as a second job.
        r.predictors.push_back(kPredictors[(nth / 2) % kPredictors.size()]);
        if (nth % 2)
            r.predictors.push_back(
                kPredictors[(nth / 2 + 1) % kPredictors.size()]);
        plan.requests.push_back(std::move(r));
    }
    return plan;
}

std::string
requestGrid(const ServeKey &key, const std::vector<std::string> &preds)
{
    std::string g = "workload=" + key.kernel + ";predictor=";
    for (size_t i = 0; i < preds.size(); ++i)
        g += (i ? "," : "") + preds[i];
    return g + ";seed=" + std::to_string(key.seed);
}

struct RequestResult
{
    bool ok = false;
    size_t jobs = 0;
    double latencyS = 0; ///< due time to sweep_done
    double lagS = 0;     ///< due time to send
    double ackS = 0;     ///< submit to accepted
    double streamS = 0;  ///< accepted to sweep_done
    runner::JobRecord firstRecord; ///< for the check's self-test
};

/** Submit one request on @p client and check every returned job. */
RequestResult
sendRequest(Tracer &tracer, serve::Client &client, const ServeRequest &r,
            const Checker &checker, uint64_t id,
            Clock::time_point due)
{
    RequestResult res;
    Scope span(tracer, "loadgen.request", id);
    auto sent = Clock::now();
    res.lagS = std::chrono::duration<double>(sent - due).count();
    serve::SubmitRequest req;
    req.grid = requestGrid(r.key, r.predictors);
    req.client = "perfbench";
    req.instructions = kServeInstructions;
    req.warmup = kServeWarmup;
    std::string err;
    bool ok;
    {
        Scope s(tracer, "serve.submit", id);
        ok = client.submit(req, &err);
    }
    res.ackS = secondsSince(sent);
    auto acked = Clock::now();
    bool match = ok;
    if (ok) {
        Scope s(tracer, "serve.stream", id);
        ok = client.streamResults(
            [&](const runner::JobRecord &rec) {
                if (res.jobs++ == 0)
                    res.firstRecord = rec;
                match = match && checker.matches(rec);
            },
            nullptr, &err);
    }
    res.streamS = secondsSince(acked);
    res.latencyS = std::chrono::duration<double>(Clock::now() - due).count();
    res.ok = ok && match && res.jobs == r.predictors.size();
    if (!res.ok)
        std::fprintf(stderr, "perfbench: request %s failed: %s\n",
                     requestGrid(r.key, r.predictors).c_str(),
                     err.empty() ? "output mismatch" : err.c_str());
    return res;
}

/** A daemon with its disk tier filled and its memory tier warmed. */
struct ServeSite
{
    std::string dir;
    std::unique_ptr<serve::Daemon> daemon;
    double setupSeconds = 0;

    ~ServeSite() { stop(); }

    void stop()
    {
        if (daemon) {
            daemon->requestDrain();
            daemon->waitUntilDrained();
            daemon.reset();
        }
        if (!dir.empty()) {
            std::error_code ec;
            fs::remove_all(dir, ec);
            dir.clear();
        }
    }
};

uint64_t
serveRecords()
{
    return kServeInstructions + kServeWarmup;
}

/**
 * Set up a site under @p dir: persist the disk-group traces, start
 * the daemon on them, and run one request per memory-group key.
 */
std::unique_ptr<ServeSite>
setUpServe(Tracer &tracer, const ServePlan &plan, const std::string &dir,
           const Options &opt, const Checker &checker)
{
    auto site = std::make_unique<ServeSite>();
    auto t0 = Clock::now();
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    site->dir = dir;
    const std::string traces = dir + "/traces";
    {
        workload::DiskTraceCache disk({traces, kServeDiskBytes});
        for (const ServeKey &k : plan.diskKeys) {
            std::shared_ptr<const workload::MaterializedTrace> t;
            {
                Scope s(tracer, "workload.generate");
                t = workload::MaterializedTrace::generate(
                    k.kernel, k.seed, serveRecords());
            }
            Scope s(tracer, "workload.disk_store");
            disk.store(k.kernel, k.seed, serveRecords(), *t);
        }
    }
    serve::DaemonConfig cfg;
    // Relative to the checkout: socket paths are limited to ~100 bytes.
    cfg.socketPath = dir + "/d.sock";
    cfg.workers = opt.threads;
    cfg.traceCacheBytes = kServeCacheBytes;
    cfg.traceCacheDir = traces;
    cfg.traceCacheDiskBytes = kServeDiskBytes;
    site->daemon = std::make_unique<serve::Daemon>(cfg);
    std::string err;
    if (!site->daemon->start(&err)) {
        std::fprintf(stderr, "perfbench: daemon: %s\n", err.c_str());
        std::exit(1);
    }
    serve::Client client;
    if (!client.connect(cfg.socketPath, &err)) {
        std::fprintf(stderr, "perfbench: connect: %s\n", err.c_str());
        std::exit(1);
    }
    for (const ServeKey &k : plan.memoryKeys) {
        ServeRequest r;
        r.key = k;
        r.predictors = {kPredictors[0]};
        if (!sendRequest(tracer, client, r, checker, 0, Clock::now()).ok)
            std::exit(1);
    }
    site->setupSeconds = secondsSince(t0);
    return site;
}

struct ServeOutcome
{
    std::vector<RequestResult> results;
    double phaseSeconds = 0;
    size_t queueDepthMax = 0;
    serve::DaemonStats stats;
};

/**
 * Drive @p site with the plan's requests at their due times over
 * @p connections client connections (an open loop: a request is sent
 * when due, or as soon as a connection frees up after that).
 */
ServeOutcome
runServe(Tracer &tracer, ServeSite &site, const ServePlan &plan,
         unsigned connections, Checker &checker, bool pollStats)
{
    ServeOutcome out;
    const auto &reqs = plan.requests;
    out.results.resize(reqs.size());
    std::atomic<size_t> next{0};
    auto t0 = Clock::now() + std::chrono::milliseconds(20);
    auto worker = [&] {
        serve::Client client;
        std::string err;
        if (!client.connect(site.daemon->socketPath(), &err)) {
            std::fprintf(stderr, "perfbench: connect: %s\n", err.c_str());
            return;
        }
        for (size_t i = next.fetch_add(1); i < reqs.size();
             i = next.fetch_add(1)) {
            auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(reqs[i].due));
            std::this_thread::sleep_until(due);
            out.results[i] =
                sendRequest(tracer, client, reqs[i], checker, i + 1, due);
        }
    };
    std::atomic<bool> done{false};
    std::thread poller;
    if (pollStats)
        poller = std::thread([&] {
            while (!done.load()) {
                out.queueDepthMax = std::max(
                    out.queueDepthMax, site.daemon->stats().queuedJobs);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < connections; ++c)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    done.store(true);
    if (poller.joinable())
        poller.join();
    out.phaseSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
    out.stats = site.daemon->stats();
    for (const RequestResult &r : out.results)
        checker.count(r.ok);
    return out;
}

double
serveMinstPerS(const ServeOutcome &o)
{
    size_t jobs = 0;
    for (const auto &r : o.results)
        if (r.ok)
            jobs += r.jobs;
    return static_cast<double>(jobs * serveRecords()) / 1e6 /
           o.phaseSeconds;
}

std::vector<double>
latencies(const ServeOutcome &o, double RequestResult::*field)
{
    std::vector<double> v;
    for (const auto &r : o.results)
        v.push_back(r.*field);
    return v;
}

// ----------------------------------------------------------- traced run

/** Counters gathered at layer boundaries during the traced run. */
struct LayerCounts
{
    explicit LayerCounts(const Tracer &t) : tracer(t) {}

    /** Records processed under spans named @p span, kept apart for
     *  the workload's own spans and the probe's. */
    void add(const std::string &span, uint64_t records)
    {
        std::lock_guard<std::mutex> g(lock);
        recordsBySpan[{span, tracer.probing()}] += records;
    }

    uint64_t records(const std::string &span, bool probe)
    {
        std::lock_guard<std::mutex> g(lock);
        return recordsBySpan[{span, probe}];
    }

    const Tracer &tracer;
    std::mutex lock;
    size_t residentBytesMax = 0; // guarded by lock
    uint64_t sampleWindows = 0;  // guarded by lock

  private:
    std::map<std::pair<std::string, bool>, uint64_t>
        recordsBySpan; // guarded by lock
};

/** Wrap a cache's own generation time as a child span of the acquire
 *  that triggered it. */
void
noteGeneration(Tracer &tracer, LayerCounts &counts, double seconds,
               uint64_t records, int64_t start, uint64_t parent,
               uint64_t request)
{
    if (seconds <= 0)
        return;
    tracer.add("workload.generate", start,
               start + static_cast<int64_t>(seconds * 1e9), parent,
               request);
    counts.add("workload.generate", records);
}

runner::JobResult
profileResult(const sim::ValueProfileRunner &profile)
{
    const sim::ProfileSeries &s = profile.results().front();
    runner::JobResult r;
    r.metrics = {{"accuracy", s.accuracyAll.value()},
                 {"coverage", s.coverage.value()},
                 {"gated_accuracy", s.accuracyGated.value()}};
    return r;
}

runner::JobResult
pipelineResult(const pipeline::PipelineStats &s)
{
    runner::JobResult r;
    r.metrics = {
        {"ipc", s.ipc},
        {"cycles", static_cast<double>(s.cycles)},
        {"dcache_miss_rate", s.dcacheMissRate},
        {"branch_accuracy", s.branchAccuracy},
        {"vp_coverage", s.coverage.value()},
        {"vp_accuracy", s.gatedAccuracy.value()},
        {"miss_load_coverage", s.missLoadCoverage.value()},
        {"miss_load_accuracy", s.missLoadAccuracy.value()},
        {"avg_value_delay", s.valueDelay.mean()},
    };
    return r;
}

/**
 * One job, executed by direct calls into the layers so each gets a
 * span: the cache acquire (with its generation), then the profile
 * runner, the pipeline, or the sampled-job entry point.
 */
runner::JobRecord
tracedJob(Tracer &tracer, LayerCounts &counts,
          workload::TraceCache &cache, const runner::JobSpec &spec,
          size_t index, uint64_t sweepSpan)
{
    // Workers hang their job spans off the sweep span.
    Scope job(tracer, "runner.job", index + 1, sweepSpan);
    runner::JobRecord rec{index, spec, {}};
    const uint64_t records = spec.instructions + spec.warmup;
    if (spec.sampled()) {
        {
            // The sampler materializes its trace first thing, so the
            // cache's generation time opens the job span.
            Scope s(tracer, "sample.job", index + 1);
            int64_t start = tracer.now();
            rec.result = sample::runSampledJob(spec, &cache, 1);
            noteGeneration(tracer, counts, rec.result.traceGenerateSeconds,
                           records, start, s.id(), index + 1);
        }
        std::lock_guard<std::mutex> g(counts.lock);
        counts.sampleWindows +=
            static_cast<uint64_t>(rec.result.metric("sample_windows"));
    } else {
        workload::TraceCache::Acquired acq;
        {
            Scope s(tracer, "workload.acquire", index + 1);
            int64_t start = tracer.now();
            acq = cache.acquire(spec.workload, spec.seed, records);
            noteGeneration(tracer, counts, acq.generateSeconds, records,
                           start, s.id(), index + 1);
        }
        if (spec.mode == runner::JobMode::Profile) {
            auto pred = runner::makePredictor(spec.predictor, spec.order,
                                              spec.tableEntries);
            sim::ProfileConfig pcfg;
            pcfg.maxInstructions = spec.instructions;
            pcfg.warmupInstructions = spec.warmup;
            sim::ValueProfileRunner profile(pcfg);
            profile.addPredictor(*pred);
            std::string name = "sim.profile_" + spec.predictor;
            {
                Scope s(tracer, name, index + 1);
                profile.run(*acq.source);
            }
            counts.add(name, records);
            rec.result = profileResult(profile);
        } else {
            auto scheme = runner::makeScheme(spec.scheme, spec.order,
                                             spec.tableEntries);
            pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                                       *scheme);
            std::string name = "pipeline." + spec.scheme;
            pipeline::PipelineStats st;
            {
                Scope s(tracer, name, index + 1);
                st = pipe.run(*acq.source, spec.instructions, spec.warmup);
            }
            counts.add(name, records);
            rec.result = pipelineResult(st);
        }
    }
    size_t resident = cache.snapshot().residentBytes;
    std::lock_guard<std::mutex> g(counts.lock);
    counts.residentBytesMax = std::max(counts.residentBytesMax, resident);
    return rec;
}

struct TracedSweep
{
    double wallSeconds = 0;
    workload::TraceCache::Stats cache;
    std::set<std::string> keys; ///< distinct (workload, seed, records)
};

/** The sweep, job by job, through runner::ThreadPool with spans. */
TracedSweep
tracedSweep(Tracer &tracer, LayerCounts &counts,
            const std::vector<runner::JobSpec> &jobs, unsigned threads,
            Checker *checker)
{
    TracedSweep out;
    workload::TraceCache cache;
    auto t0 = Clock::now();
    {
        Scope sweep(tracer, "runner.sweep");
        runner::ThreadPool pool(threads);
        const uint64_t parent = sweep.id();
        pool.forEach(jobs.size(), [&](size_t i) {
            runner::JobRecord rec =
                tracedJob(tracer, counts, cache, jobs[i], i, parent);
            if (checker)
                checker->count(checker->matches(rec));
        });
    }
    out.wallSeconds = secondsSince(t0);
    out.cache = cache.snapshot();
    for (const auto &j : jobs)
        out.keys.insert(j.workload + "/" + std::to_string(j.seed) + "/" +
                        std::to_string(j.instructions + j.warmup));
    return out;
}

/** Encode, decode, store and load one trace through the trace_io and
 *  disk-tier calls, each under its own span. */
void
traceIoRoundTrip(Tracer &tracer, LayerCounts &counts,
                 const workload::MaterializedTrace &trace,
                 const std::string &kernel, uint64_t seed,
                 const std::string &dir, int loads)
{
    fs::create_directories(dir);
    const std::string file = dir + "/roundtrip.gdtr";
    {
        Scope s(tracer, "workload.trace_io_encode");
        workload::TraceWriter w(file);
        for (const auto &c : trace.chunks())
            w.append(*c);
        w.close();
    }
    counts.add("workload.trace_io_encode", trace.records());
    {
        Scope s(tracer, "workload.trace_io_decode");
        workload::TraceFileReader r;
        workload::TraceChunk chunk;
        workload::TraceIoResult res = r.open(file);
        while (res.ok() && (res = r.read(chunk)).ok()) {
        }
        if (res.failed()) {
            std::fprintf(stderr, "perfbench: decode: %s\n",
                         res.message.c_str());
            std::exit(1);
        }
    }
    counts.add("workload.trace_io_decode", trace.records());
    workload::DiskTraceCache disk({dir + "/tier", kServeDiskBytes});
    {
        Scope s(tracer, "workload.disk_store");
        disk.store(kernel, seed, trace.records(), trace);
    }
    for (int i = 0; i < loads; ++i) {
        Scope s(tracer, "workload.disk_load");
        if (!disk.load(kernel, seed, trace.records())) {
            std::fprintf(stderr, "perfbench: disk load missed\n");
            std::exit(1);
        }
    }
}

/// Span-name prefixes: the modules the benchmark calls, plus the load
/// generator itself.
const char *const kLayers[] = {"workload", "sim",    "pipeline", "sample",
                               "runner",   "serve",  "loadgen"};

/// The probe's fixed input: one small trace every probed layer reads.
const char *const kProbeKernel = "gzip";
constexpr uint64_t kProbeRecords = 1'000'000;
constexpr uint64_t kProbePipelineInstructions = 250'000;

/**
 * Measure the layers a workload bypasses (and the layer functions no
 * workload calls directly) on one small fixed input. Spans recorded
 * here carry the probe flag and are left out of the self-time and
 * coverage figures.
 */
ServeOutcome
runProbe(Tracer &tracer, LayerCounts &counts, const std::string &workload,
         const std::string &dir, const Options &opt, const Expected &exp)
{
    ServeOutcome served;
    tracer.setProbe(true);
    std::shared_ptr<const workload::MaterializedTrace> trace;
    {
        Scope s(tracer, "workload.generate");
        trace = workload::MaterializedTrace::generate(kProbeKernel, 1,
                                                      kProbeRecords);
    }
    counts.add("workload.generate", trace->records());
    if (workload != "serve_mixed")
        traceIoRoundTrip(tracer, counts, *trace, kProbeKernel, 1, dir, 3);

    // The sampler's profiling pass and the pipeline's functional
    // warming: layer calls that runSampledJob makes internally.
    {
        workload::CachedTraceSource src(trace);
        sample::WindowGrid grid =
            sample::makeWindowGrid(0, trace->records(), kSampledWindow);
        Scope s(tracer, "sample.profile_strata");
        sample::profileStrata(src, grid, 1);
    }
    for (const auto &scheme : kSampledSchemes) {
        workload::CachedTraceSource src(trace);
        auto sc = runner::makeScheme(scheme, 8, 8192);
        pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(), *sc);
        Scope s(tracer, "pipeline.functional_warmup");
        pipe.run(src, kSampledWindow, 0, false,
                 trace->records() - kSampledWindow);
    }
    counts.add("pipeline.functional_warmup",
               kSampledSchemes.size() * (trace->records() - kSampledWindow));

    std::vector<runner::JobSpec> jobs;
    if (workload == "pipeline_sweep" || workload == "sampled_sweep" ||
        workload == "serve_mixed") {
        for (const auto &p : kPredictors) {
            runner::JobSpec s = baseSpec(kProbeKernel, 1);
            s.predictor = p;
            s.instructions = kProbeRecords - 100'000;
            s.warmup = 100'000;
            jobs.push_back(s);
        }
    }
    if (workload != "pipeline_sweep") {
        for (const auto &sc : kPipelineSchemes) {
            runner::JobSpec s = baseSpec(kProbeKernel, 1);
            s.mode = runner::JobMode::Pipeline;
            s.scheme = sc;
            s.instructions = kProbePipelineInstructions;
            s.warmup = 50'000;
            jobs.push_back(s);
        }
    }
    if (workload != "sampled_sweep") {
        runner::JobSpec s = baseSpec(kProbeKernel, 1);
        s.mode = runner::JobMode::Pipeline;
        s.scheme = "hgvq";
        s.instructions = kProbeRecords - 100'000;
        s.warmup = 100'000;
        s.sampleBudget = 8 * kSampledWindow;
        s.sampleWindow = kSampledWindow;
        jobs.push_back(s);
    }
    tracedSweep(tracer, counts, jobs, opt.threads, nullptr);

    if (workload != "serve_mixed") {
        Checker unchecked(exp, false);
        ServePlan plan;
        plan.diskKeys = {{kProbeKernel, 2}};
        for (int i = 0; i < 8; ++i) {
            ServeRequest r;
            r.due = 0.01 * i;
            r.key = {kProbeKernel, 1 + static_cast<uint64_t>(i % 2)};
            r.predictors = {kPredictors[i % kPredictors.size()]};
            plan.requests.push_back(r);
        }
        auto site = setUpServe(tracer, plan, dir + "/serve", opt, unchecked);
        served = runServe(tracer, *site, plan, opt.threads, unchecked, true);
    }
    tracer.setProbe(false);
    return served;
}

/** Spans named @p name, preferring the workload's over the probe's. */
std::vector<const Span *>
named(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<const Span *> own, probe;
    for (const Span &s : spans)
        if (s.name == name)
            (s.probe ? probe : own).push_back(&s);
    return own.empty() ? probe : own;
}

double
totalSeconds(const std::vector<const Span *> &v)
{
    double t = 0;
    for (const Span *s : v)
        t += (s->end - s->start) / 1e9;
    return t;
}

std::vector<double>
durations(const std::vector<const Span *> &v)
{
    std::vector<double> d;
    for (const Span *s : v)
        d.push_back((s->end - s->start) / 1e9);
    return d;
}

/** Records per second (in millions) over the spans named @p name. */
double
mrecPerS(const std::vector<Span> &spans, LayerCounts &counts,
         const std::string &name)
{
    std::vector<const Span *> v = named(spans, name);
    double t = totalSeconds(v);
    bool probe = !v.empty() && v.front()->probe;
    return t > 0 ? counts.records(name, probe) / 1e6 / t : 0.0;
}

/**
 * The traced run: alternate one untraced pass of the workload (the
 * end-to-end code path) with one traced pass (direct layer calls
 * under spans) until the time is up, then probe bypassed layers and
 * derive every per-layer metric from the spans and counters.
 */
int
runTraced(const Options &opt, const Expected &exp)
{
    Tracer tracer(true);
    Tracer off(false);
    LayerCounts counts(tracer);
    Checker checker(exp);
    std::vector<Metric> m;
    std::vector<double> untracedS, tracedS;
    double threadSeconds = 0;
    int64_t phaseFrom = 0, phaseTo = 0;
    uint64_t diskLoads = 0, rejected = 0;
    size_t queueDepthMax = 0;
    std::vector<double> acks, streams, lags;
    workload::TraceCache::Stats cacheTotals;
    size_t distinctKeys = 0;
    const std::string dir = opt.workDir + "/traced";

    if (opt.workload == "serve_mixed") {
        ServePlan plan = makeServePlan(opt.seed, opt.arrivalSeed,
                                       opt.seconds / 2.0);
        // Untraced half first, on its own site, for the overhead figure.
        {
            auto site = setUpServe(off, plan, dir + "/u", opt, checker);
            ServeOutcome o = runServe(off, *site, plan, opt.threads,
                                      checker, false);
            untracedS.push_back(median(latencies(o, &RequestResult::latencyS)));
        }
        auto site = setUpServe(tracer, plan, dir + "/t", opt, checker);
        counts.add("workload.generate", kServeDiskKeys * serveRecords());
        // The daemon's own disk loads are out of reach of a span; time
        // the same loads of the same entries from here.
        workload::DiskTraceCache disk({site->dir + "/traces",
                                       kServeDiskBytes});
        for (const ServeKey &k : plan.diskKeys) {
            Scope s(tracer, "workload.disk_load");
            if (!disk.load(k.kernel, k.seed, serveRecords()))
                std::exit(1);
        }
        {
            auto t = workload::MaterializedTrace::generate(
                plan.diskKeys[0].kernel, plan.diskKeys[0].seed,
                serveRecords());
            traceIoRoundTrip(tracer, counts, *t, plan.diskKeys[0].kernel,
                             plan.diskKeys[0].seed, dir + "/io", 0);
        }
        phaseFrom = tracer.now();
        ServeOutcome o =
            runServe(tracer, *site, plan, opt.threads, checker, true);
        phaseTo = tracer.now();
        threadSeconds = o.phaseSeconds * opt.threads;
        tracedS.push_back(median(latencies(o, &RequestResult::latencyS)));
        acks = latencies(o, &RequestResult::ackS);
        streams = latencies(o, &RequestResult::streamS);
        lags = latencies(o, &RequestResult::lagS);
        diskLoads = o.stats.traceCache.diskHits;
        rejected = o.stats.rejectedSweeps;
        queueDepthMax = o.queueDepthMax;
        cacheTotals = o.stats.traceCache;
        // Disk-group keys arrive from the tier, not from generation.
        distinctKeys = kServeMemoryKeys;
        for (const auto &r : plan.requests)
            if (r.group == KeyGroup::Fresh)
                ++distinctKeys;
        site->stop();
    } else {
        auto jobs = sweepJobs(opt.workload, [&](const std::string &k) {
            return kernelSeed(opt.seed, k);
        });
        auto t0 = Clock::now();
        do {
            Options once = opt;
            once.seconds = 0;
            SweepOutcome u = runSweeps(jobs, once, exp, checker);
            untracedS.push_back(simulatedRecords(jobs) / 1e6 /
                                u.minstPerS.front());
            int64_t from = tracer.now();
            if (phaseFrom == 0)
                phaseFrom = from;
            TracedSweep t =
                tracedSweep(tracer, counts, jobs, opt.threads, &checker);
            phaseTo = tracer.now();
            tracedS.push_back(t.wallSeconds);
            threadSeconds += t.wallSeconds * opt.threads;
            cacheTotals.hits += t.cache.hits;
            cacheTotals.misses += t.cache.misses;
            cacheTotals.generations += t.cache.generations;
            cacheTotals.evictions += t.cache.evictions;
            distinctKeys += t.keys.size();
        } while (secondsSince(t0) < opt.seconds);
    }
    ServeOutcome probed =
        runProbe(tracer, counts, opt.workload, dir + "/probe", opt, exp);
    if (acks.empty()) {
        acks = latencies(probed, &RequestResult::ackS);
        streams = latencies(probed, &RequestResult::streamS);
        lags = latencies(probed, &RequestResult::lagS);
        rejected = probed.stats.rejectedSweeps;
        queueDepthMax = probed.queueDepthMax;
    }

    std::vector<Span> spans = tracer.snapshot();
    std::vector<Span> phase;
    for (const Span &s : spans)
        if (!s.probe && s.start >= phaseFrom && s.end <= phaseTo)
            phase.push_back(s);
    LayerTimes lt = layerTimes(phase);

    // ---- workload
    auto gen = named(spans, "workload.generate");
    m.push_back({"workload.generate_mrec_per_s",
                 mrecPerS(spans, counts, "workload.generate"), "Mrec/s"});
    m.push_back({"workload.generate_s", totalSeconds(gen), "s"});
    m.push_back({"workload.generate_count", static_cast<double>(gen.size()),
                 "count"});
    {
        auto t = workload::MaterializedTrace::generate(kProbeKernel, 1,
                                                       kSampledWindow * 8);
        m.push_back({"workload.trace_bytes_per_rec",
                     static_cast<double>(t->bytes()) / t->records(), "B"});
    }
    m.push_back({"workload.cache_resident_mb",
                 (opt.workload == "serve_mixed" ? cacheTotals.residentBytes
                                                : counts.residentBytesMax) /
                     1048576.0,
                 "MiB"});
    m.push_back({"workload.cache_hits", double(cacheTotals.hits), "count"});
    m.push_back({"workload.cache_misses", double(cacheTotals.misses),
                 "count"});
    m.push_back({"workload.cache_evictions", double(cacheTotals.evictions),
                 "count"});
    m.push_back({"workload.cache_useful_ratio",
                 cacheTotals.generations
                     ? double(distinctKeys) / cacheTotals.generations
                     : 1.0,
                 "ratio"});
    m.push_back({"workload.trace_io_encode_mrec_per_s",
                 mrecPerS(spans, counts, "workload.trace_io_encode"),
                 "Mrec/s"});
    m.push_back({"workload.trace_io_decode_mrec_per_s",
                 mrecPerS(spans, counts, "workload.trace_io_decode"),
                 "Mrec/s"});
    m.push_back({"workload.disk_load_ms_p50",
                 median(durations(named(spans, "workload.disk_load"))) * 1e3,
                 "ms"});
    m.push_back({"workload.disk_store_ms_p50",
                 median(durations(named(spans, "workload.disk_store"))) * 1e3,
                 "ms"});
    m.push_back({"workload.disk_loads", double(diskLoads), "count"});

    // ---- sim / pipeline / sample
    for (const auto &p : kPredictors)
        m.push_back({"sim.profile_" + p + "_mrec_per_s",
                     mrecPerS(spans, counts, "sim.profile_" + p), "Mrec/s"});
    for (const auto &sc : kPipelineSchemes)
        m.push_back({"pipeline." + sc + "_minst_per_s",
                     mrecPerS(spans, counts, "pipeline." + sc), "Minst/s"});
    m.push_back({"pipeline.functional_warmup_mrec_per_s",
                 mrecPerS(spans, counts, "pipeline.functional_warmup"),
                 "Mrec/s"});
    m.push_back({"sample.profile_strata_s",
                 totalSeconds(named(spans, "sample.profile_strata")), "s"});
    auto sjobs = named(spans, "sample.job");
    m.push_back({"sample.job_s", median(durations(sjobs)), "s"});
    uint64_t windows = counts.sampleWindows;
    m.push_back({"sample.windows", double(windows), "count"});
    {
        sample::WindowGrid g = sample::makeWindowGrid(
            kSampledWarmup, kSampledInstructions, kSampledWindow);
        double warm = 0;
        for (uint64_t w = 0; w < g.count(); ++w)
            warm += double(g.warmup(w) + g.functionalWarmup(w)) /
                    double(g.length(w));
        m.push_back({"sample.warm_records_per_measured",
                     warm / double(g.count()), "ratio"});
    }

    // ---- runner
    auto sweeps = named(spans, "runner.sweep");
    auto rjobs = named(spans, "runner.job");
    std::vector<double> jd = durations(rjobs);
    double sweepSeconds = totalSeconds(sweeps);
    double jobSeconds = totalSeconds(rjobs);
    m.push_back({"runner.sweep_s", median(durations(sweeps)), "s"});
    m.push_back({"runner.job_s_p50", quantile(jd, 0.5), "s"});
    m.push_back({"runner.job_s_p90", quantile(jd, 0.9), "s"});
    m.push_back({"runner.pool_idle_frac",
                 sweepSeconds > 0
                     ? 1.0 - jobSeconds / (opt.threads * sweepSeconds)
                     : 0.0,
                 "frac"});

    // ---- serve
    m.push_back({"serve.submit_ack_ms_p50", median(acks) * 1e3, "ms"});
    m.push_back({"serve.stream_ms_p50", median(streams) * 1e3, "ms"});
    m.push_back({"serve.rejected", double(rejected), "count"});
    m.push_back({"serve.queue_depth_max", double(queueDepthMax), "count"});
    m.push_back({"loadgen.lag_ms_p90", quantile(lags, 0.9) * 1e3, "ms"});

    // ---- attribution and overhead
    // Self time as a share of the phase's thread-seconds: a layer the
    // workload bypasses reads 0 here rather than a constant time.
    for (const char *layer : kLayers) {
        double self = lt.selfSeconds.count(layer) ? lt.selfSeconds[layer] : 0;
        m.push_back({std::string("self_frac.") + layer,
                     threadSeconds > 0 ? self / threadSeconds : 0.0, "frac"});
        std::printf("self time %-9s %.4f s\n", layer, self);
    }
    m.push_back({"trace.unattributed_frac",
                 threadSeconds > 0
                     ? std::max(0.0, 1.0 - lt.coveredSeconds / threadSeconds)
                     : 0.0,
                 "frac"});
    double u = median(untracedS), t = median(tracedS);
    m.push_back({"trace.overhead_s", t - u, "s"});
    m.push_back({"trace.overhead_frac", u > 0 ? (t - u) / u : 0.0, "frac"});

    std::printf("traced: %zu spans (%zu in the measured phase); "
                "untraced %s, traced %s\n",
                spans.size(), phase.size(),
                describe("pass", untracedS, 1, "s").c_str(),
                describe("pass", tracedS, 1, "s").c_str());
    // Beside the per-run work directory, which is removed at exit.
    fs::path traceDir = fs::path(opt.workDir).parent_path();
    if (!traceDir.empty())
        fs::create_directories(traceDir);
    std::string tracePath =
        (traceDir / ("trace-" + opt.workload + "-s" +
                     std::to_string(opt.seed) + ".json"))
            .string();
    if (!tracer.write(tracePath))
        std::fprintf(stderr, "perfbench: cannot write %s\n", tracePath.c_str());
    else
        std::printf("traced: spans written to %s\n", tracePath.c_str());
    std::error_code ec;
    fs::remove_all(dir, ec);
    bool correct = checker.failed() == 0 && checker.attempted() > 0;
    printResult(correct, checker.attempted(), checker.failed(), m);
    return 0;
}

// ------------------------------------------------------ untraced runs

int
runSweepWorkload(const Options &opt, const Expected &exp)
{
    auto jobs = sweepJobs(opt.workload, [&](const std::string &k) {
        return kernelSeed(opt.seed, k);
    });
    std::vector<double> setups;
    for (int i = 0; i < kSweepSetupReps; ++i)
        setups.push_back(sweepSetup(jobs));

    Checker checker(exp);
    SweepOutcome o = runSweeps(jobs, opt, exp, checker);
    bool tested = selfTest(exp, o.sample);

    std::vector<Metric> m;
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"sim_minst_per_s", median(o.minstPerS), "Minst/s"});
    m.push_back({"req_ms_p50", quantile(o.jobDoneS, 0.5) * 1e3, "ms"});
    m.push_back({"req_ms_p90", quantile(o.jobDoneS, 0.9) * 1e3, "ms"});
    // How many traces are alive at a sweep's peak depends on timing,
    // so per-sweep peaks are multimodal and a median flips between the
    // modes; the mean moves smoothly with how often each occurs.
    double peakMean = 0;
    for (double p : o.peakRssMb)
        peakMean += p / static_cast<double>(o.peakRssMb.size());
    m.push_back({"peak_rss_mb", peakMean, "MiB"});
    double failedFrac = double(checker.failed()) / checker.attempted();
    m.push_back({"ok_frac", 1.0 - failedFrac, "frac"});

    std::printf("%s\n", describe("peak RSS per sweep", o.peakRssMb, 1,
                                 "MiB").c_str());
    std::printf("%s\n", describe("sweep throughput", o.minstPerS, 1,
                                 "Minst/s").c_str());
    std::printf("%s\n", describe("job done since sweep start (req_ms)",
                                 o.jobDoneS, 1e3, "ms").c_str());
    std::printf("failed_frac %.6g (%zu of %zu jobs)\n", failedFrac,
                checker.failed(), checker.attempted());
    if (opt.workload == "sampled_sweep") {
        double worst = 0;
        for (double e : o.ipcErrPct)
            worst = std::max(worst, e);
        std::printf("sampled_ipc_err_pct %.6g %% (max over %zu jobs)\n",
                    worst, o.ipcErrPct.size());
        std::printf("sampled_ci_cover_frac %.6g (%zu of %zu jobs)\n",
                    o.sampledJobs ? double(o.covered) / o.sampledJobs : 0.0,
                    o.covered, o.sampledJobs);
    }
    std::printf("cache (last sweep): %" PRIu64 " hits, %" PRIu64
                " misses, %" PRIu64 " generations, %" PRIu64
                " evictions\n",
                o.cache.hits, o.cache.misses, o.cache.generations,
                o.cache.evictions);
    bool correct = tested && checker.failed() == 0;
    printResult(correct, checker.attempted(), checker.failed(), m);
    return 0;
}

int
runServeWorkload(const Options &opt, const Expected &exp)
{
    Tracer off(false);
    Checker checker(exp);
    ServePlan plan =
        makeServePlan(opt.seed, opt.arrivalSeed, opt.seconds);
    std::vector<double> setups;
    std::unique_ptr<ServeSite> site;
    for (int i = 0; i < kServeSetupReps; ++i) {
        if (site)
            site->stop();
        site = setUpServe(off, plan, opt.workDir + "/serve", opt, checker);
        setups.push_back(site->setupSeconds);
    }
    resetPeakRss();
    ServeOutcome o = runServe(off, *site, plan, opt.threads, checker, false);
    double peakMb = peakRssMb();
    site->stop();

    bool tested = false;
    for (const RequestResult &r : o.results)
        if (r.ok) {
            tested = selfTest(exp, r.firstRecord);
            break;
        }

    std::vector<double> lat = latencies(o, &RequestResult::latencyS);
    std::vector<Metric> m;
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"sim_minst_per_s", serveMinstPerS(o), "Minst/s"});
    m.push_back({"req_ms_p50", quantile(lat, 0.5) * 1e3, "ms"});
    m.push_back({"req_ms_p90", quantile(lat, 0.9) * 1e3, "ms"});
    m.push_back({"peak_rss_mb", peakMb, "MiB"});
    double failedFrac = double(checker.failed()) / checker.attempted();
    m.push_back({"ok_frac", 1.0 - failedFrac, "frac"});

    size_t groups[3] = {0, 0, 0};
    for (const auto &r : plan.requests)
        ++groups[static_cast<int>(r.group)];
    std::printf("serve: %zu requests at %.1f/s (memory %zu, disk %zu, "
                "fresh %zu) over %.2f s\n",
                plan.requests.size(), kServeRate, groups[0], groups[1],
                groups[2], o.phaseSeconds);
    std::printf("%s\n", describe("request latency (req_ms)", lat, 1e3,
                                 "ms").c_str());
    const char *groupNames[3] = {"memory-key", "disk-key", "fresh-key"};
    for (int g = 0; g < 3; ++g) {
        std::vector<double> v;
        for (size_t i = 0; i < plan.requests.size(); ++i)
            if (static_cast<int>(plan.requests[i].group) == g)
                v.push_back(o.results[i].latencyS);
        std::printf("  %s\n",
                    describe(groupNames[g], v, 1e3, "ms").c_str());
    }
    std::printf("%s\n", describe("generator lag", latencies(o,
                                 &RequestResult::lagS), 1e3, "ms").c_str());
    std::printf("failed_frac %.6g (%zu of %zu requests)\n", failedFrac,
                checker.failed(), checker.attempted());
    std::printf("daemon: %" PRIu64 " completed jobs, %" PRIu64
                " rejected sweeps; cache %" PRIu64 " hits, %" PRIu64
                " generations, %" PRIu64 " disk hits, %" PRIu64
                " disk stores\n",
                o.stats.completedJobs, o.stats.rejectedSweeps,
                o.stats.traceCache.hits, o.stats.traceCache.generations,
                o.stats.traceCache.diskHits, o.stats.traceCache.diskStores);
    bool correct = tested && checker.failed() == 0;
    printResult(correct, checker.attempted(), checker.failed(), m);
    return 0;
}

// ------------------------------------------------------------- record

/** Record digests (and sampled reference IPCs) for every pool seed. */
int
record(const Options &opt)
{
    std::vector<runner::JobSpec> jobs;
    if (opt.workload == "serve_mixed") {
        for (const auto &k : workload::specWorkloadNames())
            for (uint64_t s = 1; s <= kServeSeedPool; ++s)
                for (const auto &p : kPredictors) {
                    runner::JobSpec j = baseSpec(k, s);
                    j.predictor = p;
                    j.instructions = kServeInstructions;
                    j.warmup = kServeWarmup;
                    jobs.push_back(j);
                }
    } else {
        for (uint64_t s = 1; s <= kSweepSeedPool; ++s) {
            auto more = sweepJobs(opt.workload,
                                  [&](const std::string &) { return s; });
            jobs.insert(jobs.end(), more.begin(), more.end());
        }
    }
    runner::CollectingSink sink;
    runner::SweepRunner sweep(jobs);
    sweep.addSink(sink);
    runner::SweepOptions so;
    so.threads = opt.threads;
    sweep.run(so);

    std::vector<double> ref(sink.records().size(), 0.0);
    if (opt.workload == "sampled_sweep") {
        runner::ThreadPool pool(opt.threads);
        pool.forEach(ref.size(), [&](size_t i) {
            runner::JobSpec full = sink.records()[i].spec;
            full.sampleBudget = 0;
            ref[i] = runner::runJob(full, nullptr).metric("ipc");
        });
    }
    fs::create_directories(opt.expectedDir);
    std::string path = expectedPath(opt.expectedDir, opt.workload);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return 1;
    std::fprintf(f, "# job key\tdigest of the deterministic record%s\n",
                 opt.workload == "sampled_sweep"
                     ? "\tfull-run reference IPC"
                     : "");
    for (size_t i = 0; i < sink.records().size(); ++i) {
        const auto &rec = sink.records()[i];
        std::fprintf(f, "%s\t%s", rec.spec.key().c_str(),
                     recordDigest(rec).c_str());
        if (opt.workload == "sampled_sweep")
            std::fprintf(f, "\t%.17g", ref[i]);
        std::fprintf(f, "\n");
    }
    std::fclose(f);
    std::printf("recorded %zu jobs to %s\n", sink.records().size(),
                path.c_str());
    return 0;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--arrival-seed N] "
                 "[--expected DIR] [--work-dir DIR] "
                 "[--record]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::stoull(value());
        else if (a == "--arrival-seed")
            opt.arrivalSeed = std::stoull(value());
        else if (a == "--seconds")
            opt.seconds = static_cast<unsigned>(std::stoul(value()));
        else if (a == "--trace")
            opt.trace = value() == "1";
        else if (a == "--expected")
            opt.expectedDir = value();
        else if (a == "--work-dir")
            opt.workDir = value();
        else if (a == "--record")
            opt.record = true;
        else
            usage(argv[0]);
    }
    static const std::set<std::string> known = {
        "pipeline_sweep", "profile_sweep", "sampled_sweep", "serve_mixed"};
    if (!known.count(opt.workload))
        usage(argv[0]);
    if (opt.arrivalSeed == 0)
        opt.arrivalSeed = opt.seed;
    sample::install();

    std::printf("perfbench: workload=%s seed=%" PRIu64
                " arrival_seed=%" PRIu64 " seconds=%u trace=%d threads=%u "
                "simd=%s\n",
                opt.workload.c_str(), opt.seed, opt.arrivalSeed, opt.seconds,
                opt.trace ? 1 : 0, opt.threads, simd::activeName());
    if (opt.record)
        return record(opt);

    Expected exp;
    std::string path = expectedPath(opt.expectedDir, opt.workload);
    if (!loadExpected(path, exp)) {
        std::fprintf(stderr, "perfbench: cannot read expected outputs %s\n",
                     path.c_str());
        return 1;
    }
    int rc;
    if (opt.trace)
        rc = runTraced(opt, exp);
    else if (opt.workload == "serve_mixed")
        rc = runServeWorkload(opt, exp);
    else
        rc = runSweepWorkload(opt, exp);
    std::error_code ec;
    fs::remove_all(opt.workDir + "/serve", ec);
    return rc;
}
