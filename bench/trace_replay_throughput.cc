/**
 * @file
 * Trace-layer throughput harness: how fast can a consumer drain a
 * dynamic instruction stream under the three delivery mechanisms?
 *
 *   single    per-record regeneration (Executor::next() per
 *             instruction, functional execution each time)
 *   chunked   chunked regeneration (Executor::fill, SoA batches)
 *   replay    cached replay (TraceCache hit → CachedTraceSource)
 *
 * Prints records/sec per kernel and the aggregate replay-vs-single
 * speedup. With --require-speedup=N the harness exits non-zero when
 * the aggregate speedup falls below N — scripts/check.sh uses that to
 * pin the cache's reason to exist (replay must beat single-record
 * regeneration by at least 3x). With --json=FILE the per-kernel rates
 * and the aggregate speedup are additionally written as one JSON
 * document — the CI bench job uploads these as artifacts so
 * throughput history survives the build.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "stats/table.hh"
#include "workload/executor.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

using Clock = std::chrono::steady_clock;

struct Run
{
    uint64_t records = 0;
    double seconds = 0;
    uint64_t checksum = 0; ///< defeats dead-code elimination
};

/** Execute @p src record by record up to @p budget records. */
Run
drainSingle(workload::Executor &src, uint64_t budget)
{
    Run run;
    workload::TraceRecord r;
    auto t0 = Clock::now();
    while (run.records < budget && src.next(r)) {
        run.checksum += static_cast<uint64_t>(r.value) ^ r.pc;
        ++run.records;
    }
    run.seconds = std::chrono::duration<double>(Clock::now() - t0)
                      .count();
    return run;
}

/** Drain @p src chunk-at-a-time (zero-copy) up to @p budget records. */
Run
drainChunked(workload::TraceSource &src, uint64_t budget)
{
    Run run;
    auto scratch = std::make_unique<workload::TraceChunk>();
    auto t0 = Clock::now();
    while (run.records < budget) {
        const workload::TraceChunk *chunk = src.fillRef(*scratch);
        if (!chunk)
            break;
        uint32_t n = chunk->size;
        if (run.records + n > budget)
            n = static_cast<uint32_t>(budget - run.records);
        for (uint32_t i = 0; i < n; ++i)
            run.checksum += static_cast<uint64_t>(chunk->value[i]) ^
                            chunk->pc[i];
        run.records += n;
    }
    run.seconds = std::chrono::duration<double>(Clock::now() - t0)
                      .count();
    return run;
}

double
rate(const Run &r)
{
    return r.seconds > 0 ? static_cast<double>(r.records) / r.seconds
                         : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    // --require-speedup and --json are this harness's own flags;
    // everything else goes through the shared BenchOptions parser.
    double requireSpeedup = 0.0;
    std::string jsonPath;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--require-speedup=", 18) == 0)
            requireSpeedup = static_cast<double>(
                parseU64Flag("--require-speedup", argv[i] + 18));
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            jsonPath = argv[i] + 7;
        else
            rest.push_back(argv[i]);
    }
    bench::BenchOptions o = bench::BenchOptions::parse(
        static_cast<int>(rest.size()), rest.data());

    bench::banner("trace replay throughput",
                  "records/sec: per-record vs chunked generation vs "
                  "cached replay",
                  o);

    const std::vector<std::string> kernels = {"mcf", "gzip",
                                              "micro.stride"};
    const uint64_t budget = o.instructions;

    stats::Table t("trace delivery throughput (Mrec/s)", "kernel");
    t.addColumn("single");
    t.addColumn("chunked");
    t.addColumn("replay");
    t.addColumn("replay/single");

    workload::TraceCache cache;
    double totalSingle = 0, totalReplay = 0;
    uint64_t sink = 0;
    std::string jsonKernels;
    for (const auto &name : kernels) {
        auto single = workload::makeWorkload(name, o.seed).makeExecutor();
        Run s = drainSingle(*single, budget);

        auto chunked =
            workload::makeWorkload(name, o.seed).makeExecutor();
        Run c = drainChunked(*chunked, budget);

        // Materialize once (untimed), then time the cache hit path.
        cache.acquire(name, o.seed, budget);
        auto hit = cache.acquire(name, o.seed, budget);
        Run r = drainChunked(*hit.source, budget);
        sink += s.checksum + c.checksum + r.checksum;

        totalSingle += s.seconds;
        totalReplay += r.seconds;
        t.beginRow(name);
        t.cellDouble(rate(s) / 1e6, 2);
        t.cellDouble(rate(c) / 1e6, 2);
        t.cellDouble(rate(r) / 1e6, 2);
        t.cellDouble(r.seconds > 0 ? s.seconds / r.seconds : 0.0, 2);

        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s\"%s\":{\"single_mrps\":%.3f,"
                      "\"chunked_mrps\":%.3f,\"replay_mrps\":%.3f}",
                      jsonKernels.empty() ? "" : ",", name.c_str(),
                      rate(s) / 1e6, rate(c) / 1e6, rate(r) / 1e6);
        jsonKernels += row;
    }
    bench::emit(t, o);

    double speedup =
        totalReplay > 0 ? totalSingle / totalReplay : 0.0;
    std::printf("aggregate replay speedup over single-record "
                "regeneration: %.2fx (checksum %llu)\n",
                speedup, static_cast<unsigned long long>(sink));
    if (!jsonPath.empty()) {
        std::FILE *jf = std::fopen(jsonPath.c_str(), "wb");
        if (!jf) {
            std::fprintf(stderr, "cannot create JSON file '%s'\n",
                         jsonPath.c_str());
            return 1;
        }
        std::fprintf(jf,
                     "{\"bench\":\"trace_replay_throughput\","
                     "\"instructions\":%llu,\"kernels\":{%s},"
                     "\"aggregate_replay_speedup\":%.3f}\n",
                     static_cast<unsigned long long>(budget),
                     jsonKernels.c_str(), speedup);
        std::fclose(jf);
    }
    if (requireSpeedup > 0 && speedup < requireSpeedup) {
        std::fprintf(stderr,
                     "FAIL: replay speedup %.2fx below required "
                     "%.2fx\n",
                     speedup, requireSpeedup);
        return 1;
    }
    return 0;
}
