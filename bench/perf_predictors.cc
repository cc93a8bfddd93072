/**
 * @file
 * google-benchmark microbenchmarks: per-operation cost of each
 * predictor's predict+update path. A software proxy for the paper's
 * hardware-cost discussion — gdiff's n parallel difference
 * comparators show up here as an O(order) update.
 *
 * Two entry points share this binary:
 *
 *  - the usual google-benchmark mode (BM_* entries, --benchmark_*
 *    flags), now including BM_*_Batch variants that drive the fused
 *    predictUpdateBatch() path chunk-at-a-time;
 *
 *  - a standalone batch-vs-scalar gate, selected by
 *    --require-batch-speedup=N and/or --json=FILE (both stripped
 *    before benchmark initialization, mirroring
 *    trace_replay_throughput's --require-speedup). It replays one
 *    stream per family through the virtual record-at-a-time loop and
 *    through predictUpdateBatch() in 4096-lane blocks, best of 3
 *    trials each, verifies the two paths produce bit-identical
 *    prediction checksums, writes per-family records/sec JSON, and
 *    exits non-zero when a gated family (stride, fcm, gdiff) falls
 *    below the required speedup — scripts/check.sh pins the batch
 *    protocol's reason to exist with it.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/reference.hh"
#include "core/gdiff.hh"
#include "core/gdiff2.hh"
#include "predictors/fcm.hh"
#include "predictors/gfcm.hh"
#include "predictors/hybrid.hh"
#include "predictors/last_value.hh"
#include "predictors/markov.hh"
#include "predictors/pi.hh"
#include "predictors/stride.hh"
#include "predictors/value_predictor.hh"
#include "util/random.hh"
#include "util/simd.hh"

using namespace gdiff;

namespace {

/** A reusable synthetic stream: 64 PCs, mixed strided/noisy values. */
struct Stream
{
    static constexpr size_t size = 4096;
    uint64_t pcs[size];
    int64_t values[size];

    Stream()
    {
        Xorshift64Star rng(42);
        int64_t counters[64] = {};
        for (size_t i = 0; i < size; ++i) {
            unsigned k = static_cast<unsigned>(rng.below(64));
            pcs[i] = 0x400000 + k * 4;
            if (k < 40) {
                counters[k] += static_cast<int64_t>(k) + 1;
                values[i] = counters[k]; // strided
            } else {
                values[i] = static_cast<int64_t>(rng.next() >> 8);
            }
        }
    }
};

const Stream &
stream()
{
    static Stream s;
    return s;
}

template <typename P>
void
runPredictor(benchmark::State &state, P &p)
{
    const Stream &s = stream();
    size_t i = 0;
    for (auto _ : state) {
        int64_t guess = 0;
        benchmark::DoNotOptimize(p.predict(s.pcs[i], guess));
        p.update(s.pcs[i], s.values[i]);
        i = (i + 1) % Stream::size;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/** Batch counterpart: one fused 4096-lane call per iteration. */
template <typename P>
void
runPredictorBatch(benchmark::State &state, P &p)
{
    const Stream &s = stream();
    predictors::PredictionBatch out;
    for (auto _ : state) {
        out.reset(Stream::size);
        p.predictUpdateBatch(s.pcs, s.values, Stream::size, out);
        benchmark::DoNotOptimize(out.value.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * Stream::size);
}

void
BM_LastValue(benchmark::State &state)
{
    predictors::LastValuePredictor p(8192);
    runPredictor(state, p);
}
BENCHMARK(BM_LastValue);

void
BM_LastValue_Batch(benchmark::State &state)
{
    predictors::LastValuePredictor p(8192);
    runPredictorBatch(state, p);
}
BENCHMARK(BM_LastValue_Batch);

void
BM_Stride(benchmark::State &state)
{
    predictors::StridePredictor p(8192);
    runPredictor(state, p);
}
BENCHMARK(BM_Stride);

void
BM_Stride_Batch(benchmark::State &state)
{
    predictors::StridePredictor p(8192);
    runPredictorBatch(state, p);
}
BENCHMARK(BM_Stride_Batch);

void
BM_Dfcm(benchmark::State &state)
{
    predictors::FcmConfig cfg;
    cfg.level1Entries = 8192;
    predictors::DfcmPredictor p(cfg);
    runPredictor(state, p);
}
BENCHMARK(BM_Dfcm);

void
BM_Dfcm_Batch(benchmark::State &state)
{
    predictors::FcmConfig cfg;
    cfg.level1Entries = 8192;
    predictors::DfcmPredictor p(cfg);
    runPredictorBatch(state, p);
}
BENCHMARK(BM_Dfcm_Batch);

void
BM_GDiff(benchmark::State &state)
{
    core::GDiffConfig cfg;
    cfg.order = static_cast<unsigned>(state.range(0));
    cfg.tableEntries = 8192;
    core::GDiffPredictor p(cfg);
    runPredictor(state, p);
}
BENCHMARK(BM_GDiff)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void
BM_GDiff_Batch(benchmark::State &state)
{
    core::GDiffConfig cfg;
    cfg.order = static_cast<unsigned>(state.range(0));
    cfg.tableEntries = 8192;
    core::GDiffPredictor p(cfg);
    runPredictorBatch(state, p);
}
BENCHMARK(BM_GDiff_Batch)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void
BM_Markov(benchmark::State &state)
{
    predictors::MarkovPredictor p(256 * 1024, 4);
    const Stream &s = stream();
    size_t i = 0;
    for (auto _ : state) {
        uint64_t guess = 0;
        benchmark::DoNotOptimize(p.predict(guess));
        p.update(static_cast<uint64_t>(s.values[i]) & ~7ull);
        i = (i + 1) % Stream::size;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Markov);

// ------------------------------------------- batch-vs-scalar gate

using Clock = std::chrono::steady_clock;

/** Gate-mode stream: larger and wider so table effects are real. */
struct GateStream
{
    std::vector<uint64_t> pcs;
    std::vector<int64_t> values;

    explicit GateStream(size_t records, uint64_t seed)
    {
        Xorshift64Star rng(seed);
        std::vector<int64_t> counters(256, 0);
        pcs.resize(records);
        values.resize(records);
        for (size_t i = 0; i < records; ++i) {
            unsigned k = static_cast<unsigned>(rng.below(256));
            pcs[i] = 0x400000 + k * 4;
            if (k < 160) {
                counters[k] += static_cast<int64_t>(k) + 1;
                values[i] = counters[k];
            } else {
                values[i] = static_cast<int64_t>(rng.next() >> 8);
            }
        }
    }
};

struct GateRun
{
    double seconds = 0;
    uint64_t checksum = 0; ///< prediction digest: identity guard + DCE
};

/**
 * Gate-mode factory: production-scale *limited* tables (8192 first-
 * level entries, as the BM_* entries use), unlike check's unlimited
 * map-backed makeProduction() — the gate measures the deployed
 * configuration, where table access is an array index and the batch
 * protocol's savings (devirtualization, single fused lookup, SIMD
 * difference lanes) are the dominant term.
 */
std::unique_ptr<predictors::ValuePredictor>
makeGateFamily(const std::string &name)
{
    constexpr size_t kEntries = 8192;
    if (name == "last_value")
        return std::make_unique<predictors::LastValuePredictor>(
            kEntries);
    if (name == "last_n")
        return std::make_unique<predictors::LastNValuePredictor>(
            4, kEntries);
    if (name == "stride")
        return std::make_unique<predictors::StridePredictor>(
            kEntries);
    if (name == "pi")
        return std::make_unique<predictors::PiPredictor>(kEntries);
    if (name == "fcm" || name == "dfcm") {
        predictors::FcmConfig cfg;
        cfg.level1Entries = kEntries;
        if (name == "dfcm")
            return std::make_unique<predictors::DfcmPredictor>(cfg);
        return std::make_unique<predictors::FcmPredictor>(cfg);
    }
    if (name == "gfcm")
        return std::make_unique<predictors::GFcmPredictor>(
            predictors::GFcmConfig());
    if (name == "hybrid")
        return std::make_unique<predictors::HybridLocalPredictor>(
            kEntries);
    if (name == "gdiff") {
        core::GDiffConfig cfg;
        cfg.tableEntries = kEntries;
        return std::make_unique<core::GDiffPredictor>(cfg);
    }
    core::GDiff2Config cfg;
    cfg.tableEntries = kEntries;
    return std::make_unique<core::GDiff2Predictor>(cfg);
}

GateRun
runScalar(predictors::ValuePredictor &p, const GateStream &s)
{
    GateRun run;
    auto t0 = Clock::now();
    for (size_t i = 0; i < s.pcs.size(); ++i) {
        int64_t guess = 0;
        if (p.predict(s.pcs[i], guess))
            run.checksum += static_cast<uint64_t>(guess) * 3 + 1;
        p.update(s.pcs[i], s.values[i]);
    }
    run.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return run;
}

GateRun
runBatch(predictors::ValuePredictor &p, const GateStream &s)
{
    constexpr uint32_t kLanes = 4096;
    GateRun run;
    predictors::PredictionBatch out;
    auto t0 = Clock::now();
    size_t base = 0;
    while (base < s.pcs.size()) {
        uint32_t n = static_cast<uint32_t>(
            std::min<size_t>(kLanes, s.pcs.size() - base));
        out.reset(n);
        p.predictUpdateBatch(s.pcs.data() + base,
                             s.values.data() + base, n, out);
        for (uint32_t l = 0; l < n; ++l) {
            // Branchless consumption: predicted is 0/1 and value is
            // always initialised (reset() zeroes it), so a mask-add
            // avoids the data-dependent branch the scalar bool+ref
            // API forces on mixed hit/miss streams. Same sum.
            const uint64_t m =
                0 - static_cast<uint64_t>(out.predicted[l]);
            run.checksum +=
                (static_cast<uint64_t>(out.value[l]) * 3 + 1) & m;
        }
        base += n;
    }
    run.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return run;
}

/**
 * Standalone gate: per family, best-of-N scalar vs best-of-N batch
 * over the same stream, with checksum identity enforced.
 * @return process exit code.
 */
int
runBatchGate(double require_speedup, const std::string &json_path)
{
    constexpr size_t kRecords = 1 << 18;
    // Scalar and batch trials alternate, and the speedup uses each
    // side's best: on a virtualised host a steal-time window must
    // then swallow the whole run — not one lucky side — to skew the
    // ratio. Seven short trials beat three long ones for that.
    // Each trial also regenerates the stream under a fresh seed:
    // replaying one fixed sequence lets the host branch predictor
    // memorise the scalar path's data-dependent branches across
    // trials, flattering best-of-N scalar numbers in a way no real
    // workload repeats. Within a trial both sides consume the
    // identical stream and their checksums must match.
    constexpr int kTrials = 7;
    // Families gated at the required speedup; the rest are reported.
    static const char *const kGated[] = {"stride", "fcm", "gdiff"};

    std::vector<GateStream> streams;
    streams.reserve(kTrials);
    for (int t = 0; t < kTrials; ++t)
        streams.emplace_back(kRecords, 42 + static_cast<uint64_t>(t));
    // Untimed warmup stream (disjoint seed): faults in the freshly
    // allocated tables' pages and warms caches before the clock
    // starts, so trials measure steady-state throughput rather than
    // first-touch costs — without handing the timed stream to the
    // host branch predictor ahead of time.
    GateStream warm(kRecords / 4, 7);
    std::printf("batch-vs-scalar gate: %zu records, 4096-lane "
                "blocks, best of %d (fresh stream per trial), "
                "dispatch %s\n",
                kRecords, kTrials, simd::activeName());
    std::printf("%-12s %14s %14s %9s\n", "family", "scalar Mrec/s",
                "batch Mrec/s", "speedup");

    std::string jsonRows;
    int failures = 0;
    for (const auto &family : check::batchFamilyNames()) {
        double bestScalar = 0, bestBatch = 0;
        bool sumsMatch = true;
        for (int t = 0; t < kTrials; ++t) {
            const GateStream &s = streams[t];
            auto sp = makeGateFamily(family);
            runScalar(*sp, warm);
            GateRun sr = runScalar(*sp, s);
            double mrps = sr.seconds > 0
                              ? kRecords / sr.seconds / 1e6
                              : 0;
            if (mrps > bestScalar)
                bestScalar = mrps;

            auto bp = makeGateFamily(family);
            runBatch(*bp, warm);
            GateRun br = runBatch(*bp, s);
            mrps = br.seconds > 0 ? kRecords / br.seconds / 1e6 : 0;
            if (mrps > bestBatch)
                bestBatch = mrps;

            if (sr.checksum != br.checksum) {
                std::fprintf(
                    stderr,
                    "FAIL: %s scalar/batch prediction checksums "
                    "differ on trial %d (%llu vs %llu)\n",
                    family.c_str(), t,
                    static_cast<unsigned long long>(sr.checksum),
                    static_cast<unsigned long long>(br.checksum));
                sumsMatch = false;
                break;
            }
        }
        if (!sumsMatch) {
            ++failures;
            continue;
        }
        double speedup = bestScalar > 0 ? bestBatch / bestScalar : 0;
        std::printf("%-12s %14.2f %14.2f %8.2fx\n", family.c_str(),
                    bestScalar, bestBatch, speedup);

        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s\"%s\":{\"scalar_mrps\":%.3f,"
                      "\"batch_mrps\":%.3f,\"speedup\":%.3f}",
                      jsonRows.empty() ? "" : ",", family.c_str(),
                      bestScalar, bestBatch, speedup);
        jsonRows += row;

        bool gated = false;
        for (const char *g : kGated)
            gated = gated || family == g;
        if (gated && require_speedup > 0 &&
            speedup < require_speedup) {
            std::fprintf(stderr,
                         "FAIL: %s batch speedup %.2fx below "
                         "required %.2fx\n",
                         family.c_str(), speedup, require_speedup);
            ++failures;
        }
    }

    if (!json_path.empty()) {
        std::FILE *jf = std::fopen(json_path.c_str(), "wb");
        if (!jf) {
            std::fprintf(stderr, "cannot create JSON file '%s'\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(jf,
                     "{\"bench\":\"perf_predictors_batch\","
                     "\"records\":%zu,\"simd\":\"%s\","
                     "\"families\":{%s}}\n",
                     kRecords, simd::activeName(), jsonRows.c_str());
        std::fclose(jf);
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // --require-batch-speedup and --json are this harness's own
    // flags; strip them before google-benchmark sees the rest.
    double requireSpeedup = 0.0;
    std::string jsonPath;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--require-batch-speedup=", 24) ==
            0)
            requireSpeedup = std::strtod(argv[i] + 24, nullptr);
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonPath = argv[i] + 7;
        else
            rest.push_back(argv[i]);
    }
    if (requireSpeedup > 0 || !jsonPath.empty())
        return runBatchGate(requireSpeedup, jsonPath);

    int restc = static_cast<int>(rest.size());
    benchmark::Initialize(&restc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(restc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
