/**
 * @file
 * gdiffsim — the command-line simulator a downstream user drives.
 *
 * Three modes over any built-in kernel or recorded trace file:
 *
 *   profile   architectural-order value prediction (Fig. 8 style)
 *   address   load-address prediction with D-cache miss split (§6)
 *   pipeline  full OOO run with a value-speculation scheme (§4-§7)
 *
 * Examples:
 *   gdiffsim --workload=mcf --predictors=stride,dfcm,gdiff
 *   gdiffsim --workload=parser --mode=address
 *   gdiffsim --workload=mcf --mode=pipeline --scheme=hgvq
 *   gdiffsim --workload=gzip --record=gzip.trc --instructions=2000000
 *   gdiffsim --trace=gzip.trc --predictors=gdiff2 --order=8
 *   gdiffsim --program=examples/spill_fill.s --predictors=stride,gdiff
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/ooo_model.hh"
#include "predictors/markov.hh"
#include "runner/factory.hh"
#include "sim/profile.hh"
#include "util/parse.hh"
#include "workload/assembler.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

struct Options
{
    std::string workload = "parser";
    std::string program;      // assemble a .s file instead of a kernel
    std::string trace;        // replay file instead of a kernel
    std::string record;       // write the stream here and exit
    std::string mode = "profile";
    std::string scheme = "hgvq";
    std::vector<std::string> predictors = {"stride", "dfcm", "gdiff"};
    unsigned order = 8;
    size_t tableEntries = 8192;
    uint64_t instructions = 1'000'000;
    uint64_t warmup = 100'000;
    uint64_t seed = 1;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload=NAME | --program=FILE.s | --trace=FILE]\n"
        "  [--mode=profile|"
        "address|pipeline]\n"
        "  [--predictors=a,b,...] (last,lastn,stride,fcm,dfcm,hybrid,pi,gfcm,"
        "gdiff,gdiff2)\n"
        "  [--scheme=baseline|l_stride|l_context|sgvq|hgvq] (pipeline "
        "mode)\n"
        "  [--order=N] [--table=N] [--instructions=N] [--warmup=N]\n"
        "  [--seed=N] [--record=FILE]\n"
        "workloads:",
        argv0);
    for (const auto &n : workload::specWorkloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto take = [&](const char *key, std::string &out) {
            std::string prefix = std::string(key) + "=";
            if (a.rfind(prefix, 0) == 0) {
                out = a.substr(prefix.size());
                return true;
            }
            return false;
        };
        std::string v;
        if (take("--workload", o.workload)) {
        } else if (take("--program", o.program)) {
        } else if (take("--trace", o.trace)) {
        } else if (take("--record", o.record)) {
        } else if (take("--mode", o.mode)) {
        } else if (take("--scheme", o.scheme)) {
        } else if (take("--predictors", v)) {
            o.predictors.clear();
            std::stringstream ss(v);
            std::string item;
            while (std::getline(ss, item, ','))
                o.predictors.push_back(item);
        } else if (take("--order", v)) {
            o.order = static_cast<unsigned>(
                parseU64Flag("--order", v.c_str()));
        } else if (take("--table", v)) {
            // 0 = unlimited tables
            o.tableEntries =
                parseU64Flag("--table", v.c_str(), true);
        } else if (take("--instructions", v)) {
            o.instructions =
                parseU64Flag("--instructions", v.c_str());
        } else if (take("--warmup", v)) {
            o.warmup = parseU64Flag("--warmup", v.c_str(), true);
        } else if (take("--seed", v)) {
            o.seed = parseU64Flag("--seed", v.c_str(), true);
        } else {
            usage(argv[0]);
        }
    }
    return o;
}

std::unique_ptr<workload::TraceSource>
makeSource(const Options &o)
{
    if (!o.trace.empty())
        return std::make_unique<workload::TraceFileSource>(o.trace);
    if (!o.program.empty()) {
        workload::Workload w =
            workload::assembleWorkloadFile(o.program);
        return w.makeExecutor();
    }
    workload::Workload w = workload::makeWorkload(o.workload, o.seed);
    return w.makeExecutor();
}

std::unique_ptr<predictors::ValuePredictor>
makePredictor(const std::string &name, const Options &o)
{
    return runner::makePredictor(name, o.order, o.tableEntries);
}

int
runRecord(const Options &o)
{
    auto src = makeSource(o);
    workload::TraceWriter writer(o.record);
    // Record chunk-at-a-time: each full chunk lands as one on-disk
    // block; the final chunk goes in record by record up to the
    // budget, which the writer also closes as one block.
    auto scratch = std::make_unique<workload::TraceChunk>();
    while (writer.written() < o.instructions) {
        const workload::TraceChunk *chunk = src->fillRef(*scratch);
        if (!chunk)
            break;
        uint64_t remaining = o.instructions - writer.written();
        if (chunk->size <= remaining) {
            writer.append(*chunk);
            continue;
        }
        for (uint32_t i = 0; i < remaining; ++i)
            writer.append(chunk->record(i));
    }
    uint64_t written = writer.written();
    workload::TraceIoResult closed = writer.close();
    if (closed.failed())
        fatal("%s", closed.message.c_str());
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(written),
                o.record.c_str());
    return 0;
}

int
runProfile(const Options &o)
{
    auto src = makeSource(o);
    std::vector<std::unique_ptr<predictors::ValuePredictor>> preds;
    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = o.instructions;
    pcfg.warmupInstructions = o.warmup;
    sim::ValueProfileRunner runner(pcfg);
    for (const auto &n : o.predictors) {
        preds.push_back(makePredictor(n, o));
        runner.addPredictor(*preds.back());
    }
    runner.run(*src);
    std::printf("%-10s %10s %10s %10s\n", "predictor", "accuracy",
                "coverage", "gated-acc");
    for (const auto &s : runner.results()) {
        std::printf("%-10s %9.2f%% %9.2f%% %9.2f%%\n", s.name.c_str(),
                    100.0 * s.accuracyAll.value(),
                    100.0 * s.coverage.value(),
                    100.0 * s.accuracyGated.value());
    }
    return 0;
}

int
runAddress(const Options &o)
{
    auto src = makeSource(o);
    std::vector<std::unique_ptr<predictors::ValuePredictor>> preds;
    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = o.instructions;
    pcfg.warmupInstructions = o.warmup;
    sim::AddressProfileRunner runner(pcfg);
    for (const auto &n : o.predictors) {
        preds.push_back(makePredictor(n, o));
        runner.addPredictor(*preds.back());
    }
    predictors::MarkovPredictor mk_all(256 * 1024, 4);
    predictors::MarkovPredictor mk_miss(256 * 1024, 4);
    runner.setMarkov(mk_all, mk_miss);
    runner.run(*src);
    std::printf("D-cache miss rate: %.2f%%\n",
                100.0 * runner.dcacheMissRate());
    std::printf("%-10s %9s %9s | %9s %9s (missing loads)\n",
                "predictor", "cov", "acc", "cov", "acc");
    for (const auto &s : runner.results()) {
        std::printf("%-10s %8.2f%% %8.2f%% | %8.2f%% %8.2f%%\n",
                    s.name.c_str(), 100.0 * s.coverageAll.value(),
                    100.0 * s.accuracyAll.value(),
                    100.0 * s.coverageMiss.value(),
                    100.0 * s.accuracyMiss.value());
    }
    return 0;
}

int
runPipeline(const Options &o)
{
    auto src = makeSource(o);
    // The gdiff schemes default to the paper's pipeline order of 32
    // unless the user asked for a larger window explicitly.
    unsigned order = o.order > 8 ? o.order : 32;
    std::unique_ptr<pipeline::VpScheme> scheme =
        runner::makeScheme(o.scheme, order, o.tableEntries);

    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               *scheme);
    pipeline::PipelineStats s =
        pipe.run(*src, o.instructions, o.warmup);
    std::printf("scheme           %s\n", scheme->name().c_str());
    std::printf("instructions     %llu\n",
                static_cast<unsigned long long>(s.instructions));
    std::printf("cycles           %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("IPC              %.3f\n", s.ipc);
    std::printf("D$ miss rate     %.2f%%\n",
                100.0 * s.dcacheMissRate);
    std::printf("branch accuracy  %.2f%%\n",
                100.0 * s.branchAccuracy);
    std::printf("vp coverage      %.2f%%\n",
                100.0 * s.coverage.value());
    std::printf("vp accuracy      %.2f%%\n",
                100.0 * s.gatedAccuracy.value());
    std::printf("miss-load cov    %.2f%%\n",
                100.0 * s.missLoadCoverage.value());
    std::printf("miss-load acc    %.2f%%\n",
                100.0 * s.missLoadAccuracy.value());
    std::printf("avg value delay  %.2f\n", s.valueDelay.mean());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (!o.record.empty())
        return runRecord(o);
    if (o.mode == "profile")
        return runProfile(o);
    if (o.mode == "address")
        return runAddress(o);
    if (o.mode == "pipeline")
        return runPipeline(o);
    usage(argv[0]);
}
