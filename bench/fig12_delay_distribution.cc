/**
 * @file
 * Paper Fig. 12: the distribution of value delays — the number of
 * values written back between an instruction's dispatch and its own
 * writeback — measured on the vortex kernel in the OOO pipeline.
 *
 * The paper observes that the delay is usually modest (average ≈ 5),
 * which is what makes speculative-value queues viable at all.
 */

#include "bench/bench_util.hh"

#include "pipeline/ooo_model.hh"
#include "workload/workload.hh"

using namespace gdiff;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Figure 12",
                  "value delay distribution (vortex, OOO pipeline)",
                  opt);

    workload::Workload w = workload::makeWorkload("vortex", opt.seed);
    auto exec = w.makeExecutor();
    pipeline::NoPrediction scheme;
    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               scheme);
    pipeline::PipelineStats s =
        pipe.run(*exec, opt.instructions, opt.warmup);

    stats::Table t("Fig. 12 — value delay distribution (vortex)",
                   "delay");
    t.addColumn("fraction");
    double tail = 1.0;
    for (size_t d = 0; d <= 24; ++d) {
        t.beginRow(std::to_string(d));
        t.cellPercent(s.valueDelay.fraction(d), 2);
        tail -= s.valueDelay.fraction(d);
    }
    t.beginRow(">24");
    t.cellPercent(tail, 2);
    bench::emit(t, opt);

    std::printf("measured average value delay: %.2f (paper: "
                "approximately 5, with most delays small)\n",
                s.valueDelay.mean());

    // The other nine kernels' averages, for context.
    std::printf("\naverage value delay per kernel:\n");
    for (const auto &name : workload::specWorkloadNames()) {
        workload::Workload w2 = workload::makeWorkload(name, opt.seed);
        auto exec2 = w2.makeExecutor();
        pipeline::NoPrediction scheme2;
        pipeline::OooPipeline pipe2(pipeline::PipelineConfig::paper(),
                                    scheme2);
        pipeline::PipelineStats s2 =
            pipe2.run(*exec2, opt.instructions / 2, opt.warmup / 2);
        std::printf("  %-8s %6.2f\n", name.c_str(),
                    s2.valueDelay.mean());
    }
    return 0;
}
