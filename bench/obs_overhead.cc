/**
 * @file
 * Observability overhead gate: the whole point of src/obs is that
 * instrumentation at chunk/job granularity costs almost nothing, so
 * this harness measures exactly that claim and — with
 * --require-overhead=PCT — fails when enabling collection slows the
 * instrumented hot path by more than PCT percent. scripts/check.sh
 * and the CI bench job pin it at 3%.
 *
 * Method: drain the profile runner (the most finely instrumented
 * loop) over a cached, pre-materialized trace, so the work measured
 * is pure simulation with zero generation noise. Each mode runs
 * several times interleaved and keeps its minimum, the standard
 * trick for squeezing scheduler noise out of a wall-clock ratio.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

#include "core/gdiff.hh"
#include "obs/obs.hh"
#include "sim/profile.hh"
#include "workload/trace_cache.hh"

using namespace gdiff;

namespace {

using Clock = std::chrono::steady_clock;

/** One timed profile run over a cached trace replay. */
double
timedRun(workload::TraceCache &cache, const std::string &kernel,
         const bench::BenchOptions &o)
{
    auto acq =
        cache.acquire(kernel, o.seed, o.warmup + o.instructions);

    core::GDiffConfig gcfg;
    gcfg.order = 8;
    gcfg.tableEntries = 8192;
    core::GDiffPredictor pred(gcfg);

    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = o.instructions;
    pcfg.warmupInstructions = o.warmup;
    sim::ValueProfileRunner runner(pcfg);
    runner.addPredictor(pred);

    auto t0 = Clock::now();
    runner.run(*acq.source);
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    // --require-overhead is this harness's own flag; everything else
    // goes through the shared BenchOptions parser.
    double requirePct = 0.0;
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--require-overhead=", 19) == 0)
            requirePct = static_cast<double>(
                parseU64Flag("--require-overhead", argv[i] + 19));
        else
            rest.push_back(argv[i]);
    }
    bench::BenchOptions o = bench::BenchOptions::parse(
        static_cast<int>(rest.size()), rest.data());

    bench::banner("obs overhead",
                  "profile-loop wall time with instrumentation off "
                  "vs on",
                  o);

    const std::vector<std::string> kernels = {"mcf", "parser",
                                              "gzip"};
    constexpr int kRepeats = 5;

    // Materialize every trace up front (untimed) so both modes replay
    // identical frozen streams.
    workload::TraceCache cache;
    for (const auto &k : kernels)
        cache.acquire(k, o.seed, o.warmup + o.instructions);

    stats::Table t("obs overhead per kernel (min-of-" +
                       std::to_string(kRepeats) + " seconds)",
                   "kernel");
    t.addColumn("obs off");
    t.addColumn("obs on");
    t.addColumn("overhead %");

    double sumOff = 0, sumOn = 0;
    for (const auto &k : kernels) {
        double off = 1e100, on = 1e100;
        for (int r = 0; r < kRepeats; ++r) {
            obs::setEnabled(false);
            off = std::min(off, timedRun(cache, k, o));
            obs::setEnabled(true);
            on = std::min(on, timedRun(cache, k, o));
        }
        obs::setEnabled(false);
        obs::reset();
        sumOff += off;
        sumOn += on;
        t.beginRow(k);
        t.cellDouble(off, 4);
        t.cellDouble(on, 4);
        t.cellDouble(100.0 * (on - off) / off, 2);
    }
    bench::emit(t, o);

    double pct = 100.0 * (sumOn - sumOff) / sumOff;
    std::printf("aggregate obs overhead: %.2f%% (off %.4fs, on "
                "%.4fs)\n",
                pct, sumOff, sumOn);
    if (requirePct > 0 && pct > requirePct) {
        std::fprintf(stderr,
                     "FAIL: obs overhead %.2f%% above required "
                     "%.2f%%\n",
                     pct, requirePct);
        return 1;
    }
    return 0;
}
