/**
 * @file
 * gdiffrun — the parallel experiment-sweep driver.
 *
 * Expands a cartesian experiment grid into independent jobs and runs
 * them across a thread pool, streaming structured results:
 *
 *   gdiffrun --grid 'workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;order=4,8' \
 *            --threads=8 --out results.jsonl
 *
 *   gdiffrun --grid 'workload=mcf;scheme=baseline,l_stride,hgvq;order=32' \
 *            --threads=4 --csv speedups.csv
 *
 * Per-job metrics are bit-identical whatever the thread count (see
 * src/runner/runner.hh for the determinism contract). With
 * --manifest, a killed sweep resumes where it stopped: completed jobs
 * are journaled and skipped on rerun, and --out switches to append
 * mode so the JSON-lines file accumulates across runs.
 */

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "check/snapshot.hh"
#include "obs/obs.hh"
#include "obs/trace_export.hh"
#include "runner/factory.hh"
#include "runner/runner.hh"
#include "sample/sample.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

struct Options
{
    std::string grid;
    std::string out;      // JSON-lines path
    std::string csv;      // CSV path
    std::string snapshot; // metric-surface snapshot path
    std::string snapshotNote; // freeform label stored in the snapshot
    std::string manifest; // resume manifest path
    unsigned threads = 0; // 0 = hardware concurrency
    uint64_t instructions = 1'000'000;
    uint64_t warmup = 100'000;
    uint64_t sampleBudget = 0; // 0 = full-trace simulation
    uint64_t sampleWindow = 4096;
    uint64_t sampleSeed = 1;
    bool instructionsSet = false;
    bool noTable = false;
    bool useTraceCache = true;
    size_t traceCacheBytes = 0; // 0 = keep the cache's default cap
    std::string traceCacheDir; // persistent tier root; empty = env/none
    size_t traceCacheDiskBytes = 0; // 0 = the tier's default cap
    bool list = false;
    bool deterministic = false; // jsonl without timing metadata
    std::string traceOut;   // Chrome trace-event JSON path
    bool obsSummary = false; // print the obs stage/counter tables
};

/**
 * SIGINT/SIGTERM request a graceful stop: the sweep stops dispatching
 * new jobs, in-flight jobs finish and reach the sinks, and the
 * manifest stays consistent for a resumed run. A handler may only
 * touch lock-free state, hence the bare atomic flag.
 */
std::atomic<bool> stopRequested{false};

void
onStopSignal(int)
{
    stopRequested.store(true, std::memory_order_relaxed);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --grid 'key=v1,v2;key=...' [options]\n"
        "\n"
        "grid axes: workload, predictor (profile mode), scheme\n"
        "  (pipeline mode), order, table, seed, instructions, mode\n"
        "options:\n"
        "  --threads=N      worker threads (default: hardware "
        "concurrency)\n"
        "  --out=FILE       JSON-lines results (appended when "
        "resuming)\n"
        "  --csv=FILE       CSV results\n"
        "  --snapshot=FILE  freeze the sweep's full metric surface as\n"
        "                   a content-digested snapshot; diff two\n"
        "                   snapshots with gdiffcmp\n"
        "  --snapshot-note=TEXT  label stored in the snapshot (e.g. a\n"
        "                   commit id)\n"
        "  --manifest=FILE  resume journal: completed jobs are "
        "skipped on rerun\n"
        "  --instructions=N measured instructions per job "
        "(default 1000000)\n"
        "  --warmup=N       warmup instructions per job "
        "(default 100000)\n"
        "  --sample-budget=N  sampled simulation: timing-simulate only\n"
        "                   N of the measured records, spread over\n"
        "                   stratified windows; results carry 95%% CIs\n"
        "                   (*_ci_lo/*_ci_hi columns)\n"
        "  --sample-windows=N  records per measured window "
        "(default 4096)\n"
        "  --sample-seed=N  window-selection seed (default 1)\n"
        "  --no-table       suppress the human-readable table\n"
        "  --deterministic  strip timing metadata from --out lines so\n"
        "                   runs can be compared with sort + cmp\n"
        "  --no-trace-cache regenerate every job's trace instead of\n"
        "                   replaying the shared cached copy\n"
        "  --trace-cache-mb=N  cap the shared trace cache at N MiB\n"
        "  --trace-cache-dir=DIR  persist generated traces under DIR\n"
        "                   and replay them across runs/processes\n"
        "                   (GDIFF_TRACE_CACHE_DIR sets the default)\n"
        "  --trace-cache-disk-mb=N  cap the persistent tier at N MiB\n"
        "                   (default 2048)\n"
        "  --trace-out=FILE write a Chrome trace-event JSON timeline\n"
        "                   of the sweep (load in Perfetto or\n"
        "                   chrome://tracing)\n"
        "  --obs-summary    print per-stage timing and counter tables\n"
        "                   after the sweep\n"
        "  --list           print registered workloads, predictors\n"
        "                   and schemes, then exit\n"
        "workloads:",
        argv0);
    for (const auto &n : workload::specWorkloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** --list: the registered grid vocabulary, one axis per line. */
void
printRegistry()
{
    std::printf("workloads:");
    for (const auto &n : workload::specWorkloadNames())
        std::printf(" %s", n.c_str());
    std::printf("\npredictors:");
    for (const auto &n : runner::predictorNames())
        std::printf(" %s", n.c_str());
    std::printf("\nschemes:");
    for (const auto &n : runner::schemeNames())
        std::printf(" %s", n.c_str());
    std::printf("\nmodes: profile pipeline\n");
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        // Accept both --flag=value and --flag value.
        auto take = [&](const char *key, std::string &dest) {
            std::string prefix = std::string(key) + "=";
            if (a.rfind(prefix, 0) == 0) {
                dest = a.substr(prefix.size());
                return true;
            }
            if (a == key && i + 1 < argc) {
                dest = argv[++i];
                return true;
            }
            return false;
        };
        std::string v;
        if (take("--grid", o.grid)) {
        } else if (take("--out", o.out)) {
        } else if (take("--csv", o.csv)) {
        } else if (take("--snapshot", o.snapshot)) {
        } else if (take("--snapshot-note", o.snapshotNote)) {
        } else if (take("--manifest", o.manifest)) {
        } else if (take("--threads", v)) {
            o.threads =
                static_cast<unsigned>(parseU64Flag("--threads",
                                                   v.c_str()));
        } else if (take("--instructions", v)) {
            o.instructions = parseU64Flag("--instructions", v.c_str());
            o.instructionsSet = true;
        } else if (take("--warmup", v)) {
            o.warmup = parseU64Flag("--warmup", v.c_str(), true);
        } else if (take("--sample-budget", v)) {
            o.sampleBudget =
                parseU64Flag("--sample-budget", v.c_str(), true);
        } else if (take("--sample-windows", v)) {
            o.sampleWindow =
                parseU64Flag("--sample-windows", v.c_str());
        } else if (take("--sample-seed", v)) {
            o.sampleSeed =
                parseU64Flag("--sample-seed", v.c_str(), true);
        } else if (take("--trace-cache-mb", v)) {
            o.traceCacheBytes =
                static_cast<size_t>(
                    parseU64Flag("--trace-cache-mb", v.c_str(), true)) *
                (size_t(1) << 20);
        } else if (take("--trace-cache-dir", o.traceCacheDir)) {
        } else if (take("--trace-cache-disk-mb", v)) {
            o.traceCacheDiskBytes =
                static_cast<size_t>(parseU64Flag("--trace-cache-disk-mb",
                                                 v.c_str(), true)) *
                (size_t(1) << 20);
        } else if (take("--trace-out", o.traceOut)) {
        } else if (a == "--obs-summary") {
            o.obsSummary = true;
        } else if (a == "--no-table") {
            o.noTable = true;
        } else if (a == "--deterministic") {
            o.deterministic = true;
        } else if (a == "--no-trace-cache") {
            o.useTraceCache = false;
        } else if (a == "--list") {
            o.list = true;
        } else {
            usage(argv[0]);
        }
    }
    if (!o.list && o.grid.empty())
        usage(argv[0]);
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (o.list) {
        printRegistry();
        return 0;
    }

    // Instrumentation is opt-in: either obs flag switches the runtime
    // gate on for the whole sweep. Validate the trace path before any
    // simulation runs so a typo'd directory fails in milliseconds, not
    // after the sweep.
    if (!o.traceOut.empty() || o.obsSummary) {
        if (!GDIFF_OBS_ENABLED)
            warn("observability was compiled out (GDIFF_OBS=OFF); "
                 "--trace-out/--obs-summary will report nothing");
        obs::setEnabled(true);
    }
    if (!o.traceOut.empty()) {
        std::FILE *probe = std::fopen(o.traceOut.c_str(), "wb");
        if (!probe)
            fatal("cannot create trace file '%s'", o.traceOut.c_str());
        std::fclose(probe);
    }

    sample::install();

    runner::SweepSpec spec = runner::SweepSpec::parseGrid(o.grid);
    spec.defaultInstructions = o.instructions;
    if (o.instructionsSet)
        spec.instructionWindows.clear(); // CLI flag overrides the axis
    spec.warmup = o.warmup;
    spec.sampleBudget = o.sampleBudget;
    spec.sampleWindow = o.sampleWindow;
    spec.sampleSeed = o.sampleSeed;

    runner::SweepRunner sweep(spec);
    // Reject every bad job before the pool starts: a worker that hit
    // one would fatal() mid-sweep.
    if (std::string error; !runner::validateJobs(sweep.jobs(), &error))
        fatal("%s", error.c_str());

    // Resuming implies appending: the jsonl file already holds the
    // manifest-recorded jobs from the previous run.
    bool resuming = !o.manifest.empty();
    std::vector<std::unique_ptr<runner::ResultSink>> sinks;
    if (!o.noTable)
        sinks.push_back(std::make_unique<runner::TableSink>(
            std::cout, "sweep over " + o.grid));
    if (!o.out.empty())
        sinks.push_back(std::make_unique<runner::JsonlSink>(
            o.out, resuming, o.deterministic));
    if (!o.csv.empty())
        sinks.push_back(std::make_unique<runner::CsvSink>(o.csv));
    check::SnapshotSink *snapshotSink = nullptr;
    if (!o.snapshot.empty()) {
        auto sink = std::make_unique<check::SnapshotSink>(
            o.snapshot, "gdiffrun", o.snapshotNote);
        snapshotSink = sink.get();
        sinks.push_back(std::move(sink));
    }
    for (auto &s : sinks)
        sweep.addSink(*s);

    runner::SweepOptions ropt;
    ropt.threads = o.threads;
    ropt.manifestPath = o.manifest;
    ropt.useTraceCache = o.useTraceCache;
    ropt.traceCacheBytes = o.traceCacheBytes;
    ropt.traceCacheDir = o.traceCacheDir;
    ropt.traceCacheDiskBytes = o.traceCacheDiskBytes;
    ropt.cancel = &stopRequested;

    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    std::fprintf(stderr, "gdiffrun: %zu jobs, %u threads\n",
                 sweep.jobs().size(),
                 ropt.threads == 0 ? runner::defaultThreads()
                                   : ropt.threads);
    runner::SweepSummary s = sweep.run(ropt);
    std::fprintf(stderr,
                 "gdiffrun: ran %zu jobs (%zu resumed/skipped) in "
                 "%.2fs\n",
                 s.ranJobs, s.skippedJobs, s.wallSeconds);
    if (o.useTraceCache && s.ranJobs > 0) {
        std::fprintf(stderr,
                     "gdiffrun: trace cache: %zu generated (%.2fs), "
                     "%zu replayed\n",
                     s.generatedTraces, s.generateSeconds,
                     s.replayedJobs);
        workload::TraceCache::Stats cs =
            workload::TraceCache::global().snapshot();
        std::fprintf(stderr,
                     "gdiffrun: trace cache: %" PRIu64 " hits, %" PRIu64
                     " misses, %" PRIu64 " evictions, %.1f MiB resident "
                     "(%zu traces)\n",
                     cs.hits, cs.misses, cs.evictions,
                     static_cast<double>(cs.residentBytes) /
                         (1 << 20),
                     cs.entries);
        if (cs.diskEnabled) {
            std::fprintf(
                stderr,
                "gdiffrun: trace disk cache (%s): %" PRIu64
                " hits, %" PRIu64 " misses, %" PRIu64
                " stores, %" PRIu64 " evictions, %" PRIu64
                " corrupt-recovered\n",
                workload::TraceCache::global().diskRoot().c_str(),
                cs.diskHits, cs.diskMisses, cs.diskStores,
                cs.diskEvictions, cs.diskCorruptRecoveries);
        }
    }
    if (s.canceledJobs > 0) {
        std::fprintf(stderr,
                     "gdiffrun: interrupted: %zu jobs canceled before "
                     "dispatch; completed jobs were flushed%s\n",
                     s.canceledJobs,
                     o.manifest.empty()
                         ? ""
                         : " and journaled (rerun with the same "
                           "--manifest to resume)");
    }

    if (!o.traceOut.empty() || o.obsSummary) {
        obs::Snapshot snap = obs::snapshot();
        if (o.obsSummary)
            obs::printSummary(std::cout, snap);
        if (!o.traceOut.empty()) {
            if (!obs::writeChromeTrace(o.traceOut, snap))
                return 1;
            std::fprintf(stderr,
                         "gdiffrun: wrote %zu trace spans to %s\n",
                         snap.spans.size(), o.traceOut.c_str());
        }
    }
    if (snapshotSink) {
        if (!snapshotSink->writeResult().ok())
            return 1;
        std::fprintf(stderr, "gdiffrun: wrote snapshot %s\n",
                     o.snapshot.c_str());
    }

    // The conventional 128+SIGINT code tells callers (and scripts)
    // that the sweep was cut short, not that it failed.
    return s.canceledJobs > 0 ? 130 : 0;
}
