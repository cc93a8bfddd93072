/**
 * @file
 * Baseline-predictor tests: last-value, last-N, stride (2-delta),
 * FCM/DFCM, PI, Markov, confidence, and the shared table machinery.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "predictors/confidence.hh"
#include "predictors/fcm.hh"
#include "predictors/last_value.hh"
#include "predictors/markov.hh"
#include "predictors/pi.hh"
#include "predictors/stride.hh"
#include "predictors/table.hh"
#include "util/random.hh"

namespace gdiff {
namespace predictors {
namespace {

constexpr uint64_t pcA = 0x400000;
constexpr uint64_t pcB = 0x400100;

/** Feed a sequence and count correct predictions (predict-then-update). */
template <typename P>
unsigned
score(P &p, uint64_t pc, const std::vector<int64_t> &values)
{
    unsigned correct = 0;
    for (int64_t v : values) {
        int64_t guess = 0;
        if (p.predict(pc, guess) && guess == v)
            ++correct;
        p.update(pc, v);
    }
    return correct;
}

// --------------------------------------------------------- last value

TEST(LastValue, NoPredictionBeforeFirstUpdate)
{
    LastValuePredictor p;
    int64_t v;
    EXPECT_FALSE(p.predict(pcA, v));
}

TEST(LastValue, PredictsRepeats)
{
    LastValuePredictor p;
    // 9 repeats after the first value -> 9 correct.
    EXPECT_EQ(score(p, pcA, std::vector<int64_t>(10, 42)), 9u);
}

TEST(LastValue, PerPcIsolation)
{
    LastValuePredictor p;
    p.update(pcA, 1);
    p.update(pcB, 2);
    int64_t v;
    ASSERT_TRUE(p.predict(pcA, v));
    EXPECT_EQ(v, 1);
    ASSERT_TRUE(p.predict(pcB, v));
    EXPECT_EQ(v, 2);
}

// ------------------------------------------------------------- last N

TEST(LastN, RecoversAlternatingPattern)
{
    LastNValuePredictor p(4);
    // Alternating 5,9,5,9... : after warmup the MRU-repeated value is
    // predicted; it matches half the time at worst and the predictor
    // must at least keep predicting known values.
    std::vector<int64_t> seq;
    for (int i = 0; i < 20; ++i)
        seq.push_back(i % 2 ? 9 : 5);
    score(p, pcA, seq);
    int64_t v;
    ASSERT_TRUE(p.predict(pcA, v));
    EXPECT_TRUE(v == 5 || v == 9);
}

TEST(LastN, DepthBounded)
{
    LastNValuePredictor p(2);
    p.update(pcA, 1);
    p.update(pcA, 2);
    p.update(pcA, 3); // evicts 1
    int64_t v;
    ASSERT_TRUE(p.predict(pcA, v));
    EXPECT_EQ(v, 3); // no repeats seen; MRU is predicted
}

// -------------------------------------------------------------- stride

TEST(Stride, LearnsConstantStride)
{
    StridePredictor p;
    std::vector<int64_t> seq;
    for (int i = 0; i < 12; ++i)
        seq.push_back(100 + 7 * i);
    // 2-delta: needs two equal strides; the remaining 9 are correct.
    EXPECT_EQ(score(p, pcA, seq), 9u);
}

TEST(Stride, StrideZeroIsLastValue)
{
    StridePredictor p;
    EXPECT_EQ(score(p, pcA, std::vector<int64_t>(8, -3)), 7u);
}

TEST(Stride, TwoDeltaSurvivesOneGlitch)
{
    StridePredictor p;
    std::vector<int64_t> seq = {0, 7, 14, 21, 999, 1006, 1013, 1020};
    // 2-delta keeps stride 7 across the glitch, so everything from
    // the glitch's successor onward is correct again: 21 (learned),
    // then 1006, 1013, 1020. Only 999 itself is lost.
    unsigned correct = score(p, pcA, seq);
    EXPECT_EQ(correct, 4u);
}

TEST(Stride, SimpleVariantTracksImmediately)
{
    StridePredictor p(0, false);
    std::vector<int64_t> seq = {0, 5, 10, 15};
    // Simple stride learns after one interval: predicts 10 and 15.
    EXPECT_EQ(score(p, pcA, seq), 2u);
}

TEST(Stride, NegativeStride)
{
    StridePredictor p;
    std::vector<int64_t> seq;
    for (int i = 0; i < 10; ++i)
        seq.push_back(1000 - 13 * i);
    EXPECT_EQ(score(p, pcA, seq), 7u);
}

// ---------------------------------------------------------------- FCM

TEST(Dfcm, LearnsPeriodicStridePattern)
{
    DfcmPredictor p;
    // Period-3 stride pattern: +1,+2,+4 repeating. A stride predictor
    // fails; DFCM captures it once each stride context repeats.
    std::vector<int64_t> seq;
    int64_t v = 0;
    const int64_t strides[3] = {1, 2, 4};
    for (int i = 0; i < 60; ++i) {
        seq.push_back(v);
        v += strides[i % 3];
    }
    unsigned correct = score(p, pcA, seq);
    EXPECT_GT(correct, 45u); // near-perfect after warmup

    StridePredictor s;
    EXPECT_LT(score(s, pcA, seq), 10u);
}

TEST(Dfcm, ConstantSequence)
{
    DfcmPredictor p;
    EXPECT_GT(score(p, pcA, std::vector<int64_t>(30, 5)), 24u);
}

TEST(Fcm, LearnsPeriodicValues)
{
    FcmPredictor p;
    std::vector<int64_t> seq;
    const int64_t vals[4] = {3, 14, 15, 92};
    for (int i = 0; i < 80; ++i)
        seq.push_back(vals[i % 4]);
    EXPECT_GT(score(p, pcA, seq), 65u);
}

TEST(Fcm, RandomValuesUnpredictable)
{
    FcmPredictor p;
    std::vector<int64_t> seq;
    uint64_t x = 12345;
    for (int i = 0; i < 100; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        seq.push_back(static_cast<int64_t>(x >> 8));
    }
    EXPECT_LT(score(p, pcA, seq), 5u);
}

// ----------------------------------------------------------------- PI

TEST(Pi, TracksGlobalNeighbourDifference)
{
    PiPredictor p;
    // Two interleaved PCs: B's value is always A's value + 10.
    unsigned correct_b = 0;
    for (int i = 0; i < 20; ++i) {
        int64_t a = i * 3;
        p.update(pcA, a);
        int64_t guess = 0;
        if (p.predict(pcB, guess) && guess == a + 10)
            ++correct_b;
        p.update(pcB, a + 10);
    }
    EXPECT_GE(correct_b, 18u);
}

// -------------------------------------------------------------- Markov

TEST(Markov, LearnsSuccessorPairs)
{
    MarkovPredictor m(1024, 4);
    // Cyclic address sequence: successor is deterministic.
    const uint64_t addrs[3] = {0x1000, 0x2000, 0x3000};
    unsigned correct = 0, predicted = 0;
    for (int i = 0; i < 30; ++i) {
        uint64_t a = addrs[i % 3];
        uint64_t guess = 0;
        if (m.predict(guess)) {
            ++predicted;
            correct += (guess == a);
        }
        m.update(a);
    }
    EXPECT_GT(predicted, 20u);
    EXPECT_EQ(correct, predicted); // deterministic successors
}

TEST(Markov, NoPredictionWithoutHistory)
{
    MarkovPredictor m(64, 4);
    uint64_t v;
    EXPECT_FALSE(m.predict(v));
    m.update(0x10);
    EXPECT_FALSE(m.predict(v)); // successor of 0x10 still unknown
}

TEST(Markov, TagMissGatesCoverage)
{
    MarkovPredictor m(64, 4);
    m.update(0x10);
    m.update(0x20); // successor(0x10) = 0x20
    m.update(0x999); // last = 0x999, never seen as a tag
    uint64_t v;
    EXPECT_FALSE(m.predict(v));
}

// ---------------------------------------------------------- confidence

TEST(Confidence, PaperPolicyGating)
{
    ConfidenceTable c;
    EXPECT_FALSE(c.confident(pcA));
    c.train(pcA, true);  // 2
    EXPECT_FALSE(c.confident(pcA));
    c.train(pcA, true);  // 4
    EXPECT_TRUE(c.confident(pcA));
    c.train(pcA, false); // 3
    EXPECT_FALSE(c.confident(pcA));
    c.train(pcA, true);  // 5
    EXPECT_TRUE(c.confident(pcA));
}

TEST(Confidence, SaturatesAtSeven)
{
    ConfidenceTable c;
    for (int i = 0; i < 10; ++i)
        c.train(pcA, true);
    // Three misses from saturation (7) leave the counter at 4: still
    // confident; a fourth drops below threshold.
    c.train(pcA, false);
    c.train(pcA, false);
    c.train(pcA, false);
    EXPECT_TRUE(c.confident(pcA));
    c.train(pcA, false);
    EXPECT_FALSE(c.confident(pcA));
}

// --------------------------------------------------------------- table

TEST(Table, UnlimitedModeIsolatesPcs)
{
    PcIndexedTable<int> t(0);
    t.lookup(pcA) = 1;
    t.lookup(pcB) = 2;
    EXPECT_EQ(*t.probe(pcA), 1);
    EXPECT_EQ(*t.probe(pcB), 2);
    EXPECT_EQ(t.conflicts(), 0u);
}

TEST(Table, UnlimitedProbeMissingReturnsNull)
{
    PcIndexedTable<int> t(0);
    EXPECT_EQ(t.probe(0x1234), nullptr);
}

// Unlimited mode against a std::unordered_map model, over enough
// distinct PCs to grow the index several times. References taken
// before a growth must keep naming the same PC's entry after it.
TEST(Table, UnlimitedModeMatchesMapModelThroughGrowth)
{
    PcIndexedTable<int64_t> t(0);
    std::unordered_map<uint64_t, int64_t> model;
    Xorshift64Star rng(17);

    // Early references, checked again after every growth.
    std::vector<std::pair<uint64_t, int64_t *>> early;
    for (uint64_t i = 0; i < 8; ++i) {
        uint64_t pc = 0x400000 + 4 * i;
        int64_t &e = t.lookup(pc);
        e = static_cast<int64_t>(i) + 1;
        model[pc] = e;
        early.emplace_back(pc, &e);
    }

    for (int step = 0; step < 40000; ++step) {
        // Clustered, 4-byte-aligned PCs (like a program's) plus the
        // odd far-away and unaligned one; about 6000 distinct keys.
        uint64_t r = rng.next();
        uint64_t pc = (r & 7) == 0 ? rng.next() % 100000
                                   : 0x400000 + 4 * (r % 6000);
        if ((r >> 40) % 3 == 0) {
            const int64_t *got = t.probe(pc);
            auto it = model.find(pc);
            if (it == model.end())
                ASSERT_EQ(got, nullptr) << std::hex << pc;
            else
                ASSERT_TRUE(got && *got == it->second)
                    << std::hex << pc;
        } else {
            int64_t &e = t.lookup(pc);
            ASSERT_EQ(e, model[pc]) << std::hex << pc;
            e = static_cast<int64_t>(rng.next());
            model[pc] = e;
        }

        if (step % 1000 == 0) {
            for (auto &[epc, ref] : early) {
                ASSERT_EQ(ref, t.probe(epc));
                ASSERT_EQ(*ref, model[epc]);
                *ref += 1; // write through the old reference
                model[epc] += 1;
                ASSERT_EQ(t.lookup(epc), model[epc]);
            }
        }
    }
    ASSERT_GT(model.size(), 4000u); // grew well past the first index
    for (const auto &[pc, v] : model)
        ASSERT_EQ(*t.probe(pc), v);
    EXPECT_EQ(t.conflicts(), 0u);
}

TEST(Table, LimitedModeAliases)
{
    PcIndexedTable<int> t(4); // indices from (pc >> 2) & 3
    uint64_t pc1 = 0x400000;
    uint64_t pc2 = 0x400010; // same index mod 4
    t.lookup(pc1) = 7;
    EXPECT_EQ(t.conflicts(), 0u);
    t.lookup(pc2);
    EXPECT_EQ(t.conflicts(), 1u);
    EXPECT_GT(t.conflictRate(), 0.0);
}

TEST(Table, LimitedModeDistinctIndicesNoConflict)
{
    PcIndexedTable<int> t(4);
    t.lookup(0x400000);
    t.lookup(0x400004);
    t.lookup(0x400008);
    EXPECT_EQ(t.conflicts(), 0u);
}

TEST(TableDeath, NonPowerOfTwoRejected)
{
    EXPECT_DEATH(PcIndexedTable<int> t(1000), "power of two");
}

} // namespace
} // namespace predictors
} // namespace gdiff
