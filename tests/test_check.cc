/**
 * @file
 * Differential-checking subsystem tests: oracle-vs-production
 * equivalence on fuzzed streams for every predictor pair, fuzzer
 * determinism, shrinker convergence, the mutation-sanity probe (a
 * deliberately corrupted oracle must be caught and its divergence
 * minimized), repro-artifact round-trips, and pipeline invariants on
 * fuzzed programs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/differ.hh"
#include "check/fuzzer.hh"
#include "check/reference.hh"
#include "check/shrink.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace check {
namespace {

std::vector<FuzzRecord>
fuzz10k(uint64_t seed)
{
    FuzzStreamConfig cfg;
    cfg.seed = seed;
    cfg.records = 10'000;
    return fuzzValueStream(cfg);
}

// -------------------------------------------- oracle equivalence

class PairEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(PairEquivalence, OracleMatchesProductionOnFuzzStreams)
{
    for (uint64_t seed : {1, 2, 3}) {
        std::vector<FuzzRecord> stream = fuzz10k(seed);
        PredictorPair pair = makePair(GetParam());
        auto d = diffStream(*pair.production, *pair.oracle, stream);
        ASSERT_FALSE(d.has_value())
            << "seed " << seed << ": " << d->describe();
    }
}

TEST_P(PairEquivalence, MutationSanityCatchesAndShrinks)
{
    // A corrupted oracle MUST diverge — and the divergence must
    // minimize to a handful of records.
    const std::string name = GetParam();
    auto still_fails = [&](const std::vector<FuzzRecord> &s) {
        PredictorPair pair = makePair(name);
        CorruptedOracle bad(std::move(pair.oracle),
                            /*corrupt_after=*/5);
        return diffStream(*pair.production, bad, s).has_value();
    };
    std::vector<FuzzRecord> stream = fuzz10k(42);
    ASSERT_TRUE(still_fails(stream))
        << name << ": corrupted oracle was not detected";
    std::vector<FuzzRecord> shrunk =
        shrinkStream(stream, still_fails);
    EXPECT_LE(shrunk.size(), 64u) << name;
    EXPECT_TRUE(still_fails(shrunk))
        << name << ": shrunk stream no longer reproduces";
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PairEquivalence,
                         ::testing::ValuesIn(pairNames()));

TEST(PairZooTest, UnknownPairIsFatal)
{
    EXPECT_EXIT(makePair("psychic"), ::testing::ExitedWithCode(1),
                "unknown predictor pair");
}

// ------------------------------------------------------ the differ

TEST(DifferTest, ReportsFirstDivergingRecord)
{
    // last_value vs a 2-delta stride oracle on 10,20,30,40: the
    // stride is adopted once +10 repeats (after record 2), so the
    // models first disagree predicting record 3.
    PredictorPair lv = makePair("last_value");
    RefStride2Delta strideOracle;
    std::vector<FuzzRecord> stream = {{0x400000, 10},
                                      {0x400000, 20},
                                      {0x400000, 30},
                                      {0x400000, 40}};
    auto d = diffStream(*lv.production, strideOracle, stream);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 3u);
    EXPECT_EQ(d->prodValue, 30);
    EXPECT_EQ(d->refValue, 40);
    EXPECT_NE(d->describe().find("record 3"), std::string::npos);
}

TEST(DifferTest, DigestIsOrderSensitive)
{
    std::vector<FuzzRecord> a = {{1, 2}, {3, 4}};
    std::vector<FuzzRecord> b = {{3, 4}, {1, 2}};
    EXPECT_NE(streamDigest(a), streamDigest(b));
    EXPECT_EQ(streamDigest(a), streamDigest(a));
}

// ------------------------------------------------------- the fuzzer

TEST(FuzzerTest, StreamIsBitReproducible)
{
    FuzzStreamConfig cfg;
    cfg.seed = 99;
    cfg.records = 5'000;
    std::vector<FuzzRecord> a = fuzzValueStream(cfg);
    std::vector<FuzzRecord> b = fuzzValueStream(cfg);
    EXPECT_EQ(a, b);
    cfg.seed = 100;
    EXPECT_NE(streamDigest(a), streamDigest(fuzzValueStream(cfg)));
}

TEST(FuzzerTest, ProgramSourceIsDeterministicAndAssembles)
{
    FuzzProgramConfig cfg;
    cfg.seed = 3;
    EXPECT_EQ(fuzzProgramSource(cfg), fuzzProgramSource(cfg));

    workload::Workload w = fuzzProgram(cfg);
    auto exec = w.makeExecutor();
    workload::TraceRecord r;
    uint64_t n = 0;
    while (exec->next(r))
        ++n;
    EXPECT_TRUE(exec->halted()) << "fuzzed program must reach halt";
    EXPECT_GT(n, cfg.iterations) << "loop body should execute";
}

TEST(FuzzerTest, ProgramTraceIsBitReproducible)
{
    FuzzProgramConfig cfg;
    cfg.seed = 11;
    auto digestOf = [&]() {
        workload::Workload w = fuzzProgram(cfg);
        auto exec = w.makeExecutor();
        std::vector<FuzzRecord> values;
        workload::TraceRecord r;
        while (exec->next(r)) {
            if (r.producesValue())
                values.push_back(FuzzRecord{r.pc, r.value});
        }
        return streamDigest(values);
    };
    EXPECT_EQ(digestOf(), digestOf());
}

// ------------------------------------------------------ the shrinker

TEST(ShrinkTest, ConvergesToTheMinimalCore)
{
    // Predicate: at least 3 records with the marker PC. ddmin must
    // strip all 997 irrelevant records and keep exactly 3.
    std::vector<FuzzRecord> stream;
    for (int i = 0; i < 1000; ++i) {
        uint64_t pc = (i % 337 == 0) ? 0xdead : 0x400000 + 4 * i;
        stream.push_back(FuzzRecord{pc, i});
    }
    auto pred = [](const std::vector<FuzzRecord> &s) {
        size_t hits = 0;
        for (const auto &r : s)
            hits += r.pc == 0xdead;
        return hits >= 3;
    };
    ASSERT_TRUE(pred(stream));
    std::vector<FuzzRecord> shrunk = shrinkStream(stream, pred);
    EXPECT_EQ(shrunk.size(), 3u);
    for (const auto &r : shrunk)
        EXPECT_EQ(r.pc, 0xdeadu);
}

TEST(ShrinkTest, PassingStreamIsReturnedUnchanged)
{
    std::vector<FuzzRecord> stream = {{1, 1}, {2, 2}};
    auto never = [](const std::vector<FuzzRecord> &) {
        return false;
    };
    EXPECT_EQ(shrinkStream(stream, never), stream);
}

TEST(ShrinkTest, TrialBudgetIsRespected)
{
    std::vector<FuzzRecord> stream;
    for (int i = 0; i < 256; ++i)
        stream.push_back(FuzzRecord{static_cast<uint64_t>(i), i});
    uint64_t calls = 0;
    auto pred = [&](const std::vector<FuzzRecord> &s) {
        ++calls;
        return !s.empty();
    };
    ShrinkConfig cfg;
    cfg.maxTrials = 20;
    shrinkStream(stream, pred, cfg);
    EXPECT_LE(calls, cfg.maxTrials);
}

// ------------------------------------------------- repro artifacts

TEST(ArtifactTest, RoundTripsThroughTraceIoV2)
{
    FuzzStreamConfig cfg;
    cfg.seed = 17;
    cfg.records = 200;
    std::vector<FuzzRecord> stream = fuzzValueStream(cfg);
    std::string path = std::string(::testing::TempDir()) + "/" +
                       reproArtifactName("gdiff", 17);
    writeReproArtifact(path, stream);
    std::vector<FuzzRecord> back = readReproArtifact(path);
    EXPECT_EQ(stream, back);
    EXPECT_EQ(streamDigest(stream), streamDigest(back));
    std::remove(path.c_str());
}

TEST(ArtifactTest, NameEncodesPairAndSeed)
{
    EXPECT_EQ(reproArtifactName("fcm", 7),
              "gdifffuzz_fcm_seed7.gdtr");
}

TEST(ArtifactTest, TypedReaderRoundTripsGoodArtifacts)
{
    FuzzStreamConfig cfg;
    cfg.seed = 23;
    cfg.records = 150;
    std::vector<FuzzRecord> stream = fuzzValueStream(cfg);
    std::string path =
        std::string(::testing::TempDir()) + "repro_typed.gdtr";
    writeReproArtifact(path, stream);
    std::vector<FuzzRecord> back;
    workload::TraceIoResult io;
    ASSERT_TRUE(readReproArtifactOr(path, back, &io));
    EXPECT_EQ(io.status, workload::TraceIoStatus::End);
    EXPECT_EQ(back, stream);
    std::remove(path.c_str());
}

TEST(ArtifactTest, TypedReaderReportsCorruptionInsteadOfDying)
{
    // Regression: gdifffuzz --replay used to fatal() inside
    // TraceFileSource on a damaged artifact. The typed reader must
    // return the failure status and leave the process alive.
    FuzzStreamConfig cfg;
    cfg.seed = 29;
    cfg.records = 150;
    std::vector<FuzzRecord> stream = fuzzValueStream(cfg);
    std::string good =
        std::string(::testing::TempDir()) + "repro_good.gdtr";
    writeReproArtifact(good, stream);

    FILE *f = fopen(good.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fseek(f, 0, SEEK_SET);
    std::string bytes(static_cast<size_t>(size), '\0');
    ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);

    std::vector<FuzzRecord> back;
    workload::TraceIoResult io;

    // Flip a byte in the middle of the payload: digest/corruption.
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x5a;
    std::string bad =
        std::string(::testing::TempDir()) + "repro_bad.gdtr";
    {
        FILE *w = fopen(bad.c_str(), "wb");
        ASSERT_NE(w, nullptr);
        fwrite(flipped.data(), 1, flipped.size(), w);
        fclose(w);
    }
    EXPECT_FALSE(readReproArtifactOr(bad, back, &io));
    EXPECT_NE(io.status, workload::TraceIoStatus::End);
    EXPECT_NE(io.status, workload::TraceIoStatus::Ok);

    // Truncate to half: a clean typed Truncated/IoError, not a
    // fatal.
    std::string half = bytes.substr(0, bytes.size() / 2);
    {
        FILE *w = fopen(bad.c_str(), "wb");
        ASSERT_NE(w, nullptr);
        fwrite(half.data(), 1, half.size(), w);
        fclose(w);
    }
    back.clear();
    EXPECT_FALSE(readReproArtifactOr(bad, back, &io));
    EXPECT_NE(io.status, workload::TraceIoStatus::End);

    // Not a trace file at all.
    {
        FILE *w = fopen(bad.c_str(), "wb");
        ASSERT_NE(w, nullptr);
        fputs("definitely not a trace", w);
        fclose(w);
    }
    back.clear();
    EXPECT_FALSE(readReproArtifactOr(bad, back, &io));
    EXPECT_EQ(io.status, workload::TraceIoStatus::BadMagic);

    // Missing file.
    EXPECT_FALSE(readReproArtifactOr(
        "/nonexistent-dir/repro.gdtr", back, &io));
    EXPECT_EQ(io.status, workload::TraceIoStatus::IoError);

    std::remove(good.c_str());
    std::remove(bad.c_str());
}

// ------------------------------------------- pipeline invariants

TEST(PipelineInvariantTest, FuzzedProgramsHoldAllInvariants)
{
    for (uint64_t seed : {1, 2}) {
        FuzzProgramConfig pcfg;
        pcfg.seed = seed;
        workload::Workload w = fuzzProgram(pcfg);
        for (const char *scheme_name : {"baseline", "hgvq"}) {
            auto scheme = runner::makeScheme(scheme_name, 8, 0);
            pipeline::PipelineConfig cfg;
            cfg.check.enabled = true;
            pipeline::OooPipeline pipe(cfg, *scheme);
            auto exec = w.makeExecutor();
            pipeline::PipelineStats stats =
                pipe.run(*exec, 1'000'000'000);
            EXPECT_EQ(stats.checkViolations, 0u)
                << "seed " << seed << " scheme " << scheme_name
                << ": "
                << (stats.checkReports.empty()
                        ? "(no report)"
                        : stats.checkReports.front());
            EXPECT_LE(stats.ipc,
                      static_cast<double>(cfg.retireWidth) + 1e-9);
        }
    }
}

TEST(PipelineInvariantTest, KernelWorkloadHoldsInvariants)
{
    workload::Workload w = workload::makeWorkload("mcf", 1);
    auto scheme = runner::makeScheme("hgvq", 16, 0);
    pipeline::PipelineConfig cfg;
    cfg.check.enabled = true;
    pipeline::OooPipeline pipe(cfg, *scheme);
    auto exec = w.makeExecutor();
    pipeline::PipelineStats stats = pipe.run(*exec, 50'000, 5'000);
    EXPECT_EQ(stats.checkViolations, 0u)
        << (stats.checkReports.empty() ? "(no report)"
                                       : stats.checkReports.front());
}

// The pending-writeback payload ring (nextPow2(robSize) slots) and
// the HGVQ candidate ring rely on at most robSize producers being in
// flight; the checker counts a violation whenever more are pending.
// Non-power-of-two ROB sizes make the payload ring larger than the
// bound, 256 makes the candidate ring exactly as large as it.
TEST(PipelineInvariantTest, InFlightBoundHoldsAcrossRobSizes)
{
    std::vector<std::pair<std::string, workload::Workload>> sources;
    sources.emplace_back("mcf", workload::makeWorkload("mcf", 1));
    for (uint64_t seed : {1, 3}) {
        FuzzProgramConfig pcfg;
        pcfg.seed = seed;
        sources.emplace_back("fuzz" + std::to_string(seed),
                             fuzzProgram(pcfg));
    }
    for (unsigned rob : {48u, 100u, 256u}) {
        for (const char *scheme_name : {"sgvq", "hgvq"}) {
            for (const auto &[name, w] : sources) {
                SCOPED_TRACE(name + " " + scheme_name + " rob " +
                             std::to_string(rob));
                auto scheme = runner::makeScheme(scheme_name, 32, 0);
                pipeline::PipelineConfig cfg;
                cfg.robSize = rob;
                cfg.check.enabled = true;
                pipeline::OooPipeline pipe(cfg, *scheme);
                auto exec = w.makeExecutor();
                pipeline::PipelineStats stats =
                    pipe.run(*exec, 60'000);
                EXPECT_GT(stats.instructions, 0u);
                EXPECT_EQ(stats.checkViolations, 0u)
                    << (stats.checkReports.empty()
                            ? "(no report)"
                            : stats.checkReports.front());
            }
        }
    }
}

TEST(PipelineInvariantTest, DisabledCheckingReportsNothing)
{
    FuzzProgramConfig pcfg;
    pcfg.seed = 4;
    pcfg.iterations = 50;
    workload::Workload w = fuzzProgram(pcfg);
    auto scheme = runner::makeScheme("baseline", 8, 0);
    pipeline::OooPipeline pipe(pipeline::PipelineConfig(), *scheme);
    auto exec = w.makeExecutor();
    pipeline::PipelineStats stats = pipe.run(*exec, 1'000'000'000);
    EXPECT_EQ(stats.checkViolations, 0u);
    EXPECT_TRUE(stats.checkReports.empty());
}

} // namespace
} // namespace check
} // namespace gdiff
