/**
 * @file
 * Batch-protocol identity tests: predictUpdateBatch() must be
 * bit-identical to the scalar predict()/update() specification.
 *
 * The heavy lifting is check::diffScalarVsBatch — the same machinery
 * gdifffuzz --batch drives — run here over every production family
 * (those with a fused loop and those on the default), a spread of
 * chunk sizes (1 record, a prime, SIMD-width multiples, a full trace
 * chunk), and both SIMD kernel sets. The remaining tests pin the
 * protocol pieces the differ does not reach: value-lane gathering
 * with explicit actuals and the confidence table's fused
 * gate-and-train.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/differ.hh"
#include "check/fuzzer.hh"
#include "check/reference.hh"
#include "predictors/confidence.hh"
#include "predictors/stride.hh"
#include "predictors/value_predictor.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace {

/** Force a kernel set for one scope; restores the CPU default. */
class ScopedSimdMode
{
  public:
    explicit ScopedSimdMode(simd::Mode m) { simd::setModeForTest(m); }
    ~ScopedSimdMode()
    {
        simd::setModeForTest(simd::cpuSupportsAvx2()
                                 ? simd::Mode::Avx2
                                 : simd::Mode::Scalar);
    }
};

std::vector<check::FuzzRecord>
testStream(uint64_t seed, uint64_t records = 6000)
{
    check::FuzzStreamConfig cfg;
    cfg.seed = seed;
    cfg.records = records;
    return check::fuzzValueStream(cfg);
}

void
diffAllFamilies(simd::Mode mode)
{
    if (mode == simd::Mode::Avx2 && !simd::cpuSupportsAvx2())
        GTEST_SKIP() << "no AVX2 on this host";
    ScopedSimdMode scoped(mode);
    const auto stream = testStream(101);
    const uint32_t chunkLanes[] = {1, 7, 1024,
                                   workload::TraceChunk::capacity};
    for (const auto &family : check::batchFamilyNames()) {
        for (uint32_t lanes : chunkLanes) {
            auto scalar = check::makeProduction(family);
            auto batch = check::makeProduction(family);
            auto div = check::diffScalarVsBatch(*scalar, *batch,
                                                stream, lanes);
            EXPECT_FALSE(div.has_value())
                << family << " lanes=" << lanes << ": "
                << (div ? div->describe() : "");
        }
    }
}

TEST(BatchIdentity, AllFamiliesAvx2)
{
    diffAllFamilies(simd::Mode::Avx2);
}

TEST(BatchIdentity, AllFamiliesScalarKernels)
{
    diffAllFamilies(simd::Mode::Scalar);
}

// The profile drivers gather only the value-producing records of a
// chunk into dense lanes, then drive the batch calls over them.
TEST(BatchIdentity, GatheredValueLanesDriveBatchCalls)
{
    workload::TraceChunk chunk;
    chunk.clear();
    Xorshift64Star rng(7);
    std::vector<uint32_t> producing;
    chunk.size = 512;
    for (uint32_t i = 0; i < chunk.size; ++i) {
        chunk.pc[i] = 0x1000 + (i % 37) * 4;
        chunk.value[i] = static_cast<int64_t>(rng.next() >> 4);
        bool produces = (rng.next() & 3) != 0;
        chunk.flags[i] =
            produces ? workload::TraceChunk::flagProducesValue : 0;
        if (produces)
            producing.push_back(i);
    }

    constexpr uint32_t cap = workload::TraceChunk::capacity;
    std::vector<uint64_t> pcs(cap);
    std::vector<int64_t> values(cap);
    std::vector<uint32_t> records(cap);
    const uint32_t lanes = predictors::gatherValueLanes(
        chunk, chunk.size, pcs.data(), values.data(), records.data());
    ASSERT_EQ(lanes, producing.size());
    for (uint32_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(records[l], producing[l]);
        ASSERT_EQ(pcs[l], chunk.pc[producing[l]]);
        ASSERT_EQ(values[l], chunk.value[producing[l]]);
    }

    // predictUpdateBatch with explicit actuals (the address-study
    // path) trains on the supplied values, not the chunk column.
    std::vector<int64_t> addrs(lanes);
    for (uint32_t l = 0; l < lanes; ++l)
        addrs[l] = static_cast<int64_t>(0x80000 + 64 * l);
    predictors::StridePredictor batch(0);
    predictors::StridePredictor scalar(0);
    predictors::PredictionBatch out;
    batch.predictUpdateBatch(pcs.data(), addrs.data(), lanes, out);
    ASSERT_EQ(out.lanes(), lanes);
    for (uint32_t l = 0; l < lanes; ++l) {
        int64_t v = 0;
        bool p = scalar.predict(pcs[l], v);
        ASSERT_EQ(p, out.predicted[l] != 0) << "lane " << l;
        if (p)
            ASSERT_EQ(v, out.value[l]) << "lane " << l;
        scalar.update(pcs[l], addrs[l]);
    }
    for (uint32_t l = 0; l < lanes; ++l) {
        int64_t a = 0, b = 0;
        bool pa = scalar.predict(pcs[l], a);
        bool pb = batch.predict(pcs[l], b);
        ASSERT_EQ(pa, pb);
        if (pa)
            ASSERT_EQ(a, b);
    }

    // The limit cuts the chunk short.
    const uint32_t limit = 100;
    uint32_t below = 0;
    while (below < producing.size() && producing[below] < limit)
        ++below;
    EXPECT_EQ(predictors::gatherValueLanes(chunk, limit, pcs.data(),
                                           values.data(),
                                           records.data()),
              below);
}

TEST(BatchIdentity, ConfidenceEvaluateBatchMatchesScalar)
{
    predictors::ConfidenceTable a;
    predictors::ConfidenceTable b;
    Xorshift64Star rng(17);
    constexpr uint32_t kLanes = 2048;
    std::vector<uint64_t> pcs(kLanes);
    std::vector<uint8_t> predicted(kLanes), correct(kLanes);
    std::vector<uint8_t> conf(kLanes, 0xee);
    for (uint32_t l = 0; l < kLanes; ++l) {
        pcs[l] = 0x2000 + (rng.next() % 64) * 4;
        predicted[l] = (rng.next() & 7) != 0;
        correct[l] = (rng.next() & 1) != 0;
    }
    a.evaluateBatch(pcs.data(), predicted.data(), correct.data(),
                    kLanes, conf.data());
    for (uint32_t l = 0; l < kLanes; ++l) {
        uint8_t expect = 0;
        if (predicted[l]) {
            expect = b.confident(pcs[l]) ? 1 : 0;
            b.train(pcs[l], correct[l] != 0);
        }
        ASSERT_EQ(conf[l], expect) << "lane " << l;
    }
    // Post-state identity: counters agree per PC.
    for (uint32_t k = 0; k < 64; ++k)
        ASSERT_EQ(a.level(0x2000 + k * 4), b.level(0x2000 + k * 4));
}

} // namespace
} // namespace gdiff
