/**
 * @file
 * Profile-driver tests: the predict-then-update protocol, warmup
 * exclusion, confidence-gated statistics, and the load-address runner
 * with its D-cache miss classification.
 */

#include <gtest/gtest.h>

#include "core/gdiff.hh"
#include "isa/program_builder.hh"
#include "predictors/stride.hh"
#include "sim/profile.hh"
#include "workload/executor.hh"

namespace gdiff {
namespace sim {
namespace {

using namespace isa;
using namespace isa::reg;

/** A loop whose single producer counts 0, 7, 14, ... */
isa::Program
countingLoop()
{
    ProgramBuilder b("count");
    Label top = b.newLabel();
    b.bind(top);
    b.addi(t0, t0, 7);
    b.jump(top);
    return b.build();
}

TEST(ValueProfile, PerfectStrideScoresNearOne)
{
    workload::Executor exec(countingLoop());
    predictors::StridePredictor stride(0);
    ProfileConfig cfg;
    cfg.maxInstructions = 10'000;
    cfg.warmupInstructions = 100;
    ValueProfileRunner runner(cfg);
    runner.addPredictor(stride);
    runner.run(exec);
    const ProfileSeries &s = runner.results()[0];
    EXPECT_GT(s.accuracyAll.value(), 0.999);
    EXPECT_GT(s.coverage.value(), 0.99);
    EXPECT_GT(s.accuracyGated.value(), 0.999);
}

TEST(ValueProfile, WarmupExcludedFromStats)
{
    workload::Executor exec(countingLoop());
    predictors::StridePredictor stride(0);
    ProfileConfig cfg;
    cfg.maxInstructions = 1'000;
    cfg.warmupInstructions = 500;
    ValueProfileRunner runner(cfg);
    runner.addPredictor(stride);
    runner.run(exec);
    // Only measured instructions appear in the denominators; the loop
    // is half producers (addi) and half jumps.
    EXPECT_LE(runner.results()[0].accuracyAll.total(), 501u);
    EXPECT_GE(runner.results()[0].accuracyAll.total(), 499u);
    EXPECT_EQ(runner.measuredRecords(), 1'000u);
}

/** Ends after a fixed number of counting-loop records. */
class FiniteSource : public workload::TraceSource
{
  public:
    explicit FiniteSource(uint64_t records) : remaining(records) {}

    const workload::TraceChunk *
    fillRef(workload::TraceChunk &chunk) override
    {
        chunk.clear();
        while (!chunk.full() && remaining > 0) {
            workload::TraceRecord r;
            r.seq = seq++;
            r.pc = 0x1000;
            r.nextPc = 0x1000;
            r.value = static_cast<int64_t>(7 * r.seq);
            chunk.push(r);
            --remaining;
        }
        return chunk.empty() ? nullptr : &chunk;
    }

  private:
    uint64_t remaining;
    uint64_t seq = 0;
};

TEST(ValueProfile, MeasuredRecordsShrinksOnShortStream)
{
    // The stream ends 300 records into the measured phase: the
    // sampled simulator weights this window by 300, not by the
    // requested 1000.
    predictors::StridePredictor stride(0);
    ProfileConfig cfg;
    cfg.maxInstructions = 1'000;
    cfg.warmupInstructions = 500;
    ValueProfileRunner runner(cfg);
    runner.addPredictor(stride);
    FiniteSource src(800);
    runner.run(src);
    EXPECT_EQ(runner.measuredRecords(), 300u);
}

TEST(ValueProfile, MeasuredRecordsZeroWhenStreamEndsInWarmup)
{
    predictors::StridePredictor stride(0);
    ProfileConfig cfg;
    cfg.maxInstructions = 1'000;
    cfg.warmupInstructions = 500;
    ValueProfileRunner runner(cfg);
    runner.addPredictor(stride);
    FiniteSource src(400);
    runner.run(src);
    EXPECT_EQ(runner.measuredRecords(), 0u);
}

TEST(ValueProfile, MultiplePredictorsShareOneStream)
{
    workload::Executor exec(countingLoop());
    predictors::StridePredictor s1(0);
    core::GDiffConfig gcfg;
    gcfg.order = 8;
    gcfg.tableEntries = 0;
    core::GDiffPredictor s2(gcfg);
    ProfileConfig cfg;
    cfg.maxInstructions = 5'000;
    cfg.warmupInstructions = 100;
    ValueProfileRunner runner(cfg);
    runner.addPredictor(s1);
    runner.addPredictor(s2);
    runner.run(exec);
    ASSERT_EQ(runner.results().size(), 2u);
    EXPECT_EQ(runner.results()[0].accuracyAll.total(),
              runner.results()[1].accuracyAll.total());
    // The self-strided producer is its own global correlate (the only
    // producer in the loop), so gdiff matches the stride predictor.
    EXPECT_GT(runner.results()[1].accuracyAll.value(), 0.99);
}

/** Strided load walk for the address runner. */
isa::Program
loadWalk()
{
    ProgramBuilder b("walk");
    Label top = b.newLabel();
    b.bind(top);
    b.load(t1, s1, 0);
    b.addi(s1, s1, 64);   // one new cache line per load
    b.blt(s1, a2, top);
    b.addi(s1, a1, 0);
    b.jump(top);
    return b.build();
}

TEST(AddressProfile, StridedAddressesPredictable)
{
    workload::Executor exec(loadWalk());
    exec.setReg(s1, 0x10000000);
    exec.setReg(a1, 0x10000000);
    exec.setReg(a2, 0x10000000 + (1 << 21)); // 2 MiB: always missing

    predictors::StridePredictor ls(0);
    predictors::MarkovPredictor mk_all(4096, 4);
    predictors::MarkovPredictor mk_miss(4096, 4);
    ProfileConfig cfg;
    cfg.maxInstructions = 40'000;
    cfg.warmupInstructions = 4'000;
    AddressProfileRunner runner(cfg);
    runner.addPredictor(ls);
    runner.setMarkov(mk_all, mk_miss);
    runner.run(exec);

    const AddressSeries &s = runner.results()[0];
    EXPECT_GT(s.coverageAll.value(), 0.95);
    EXPECT_GT(s.accuracyAll.value(), 0.99);
    // 2 MiB streamed through a 64 KiB cache at line pitch: every load
    // misses, so the missing-load stats mirror the overall ones.
    EXPECT_GT(runner.dcacheMissRate(), 0.9);
    EXPECT_GT(s.coverageMiss.value(), 0.9);

    // Markov saw each address exactly once per lap; successors are
    // deterministic, so tag hits are accurate.
    const AddressSeries &m = runner.results().back();
    EXPECT_EQ(m.name, "markov");
    if (m.accuracyAll.total() > 0) {
        EXPECT_GT(m.accuracyAll.value(), 0.5);
    }
}

TEST(AddressProfile, HitHeavyWalkHasFewMisses)
{
    workload::Executor exec(loadWalk());
    exec.setReg(s1, 0x10000000);
    exec.setReg(a1, 0x10000000);
    exec.setReg(a2, 0x10000000 + 4096); // 4 KiB: fits easily

    predictors::StridePredictor ls(0);
    ProfileConfig cfg;
    cfg.maxInstructions = 20'000;
    cfg.warmupInstructions = 2'000;
    AddressProfileRunner runner(cfg);
    runner.addPredictor(ls);
    runner.run(exec);
    EXPECT_LT(runner.dcacheMissRate(), 0.05);
    EXPECT_EQ(runner.results()[0].coverageMiss.total(), 0u);
}

} // namespace
} // namespace sim
} // namespace gdiff
