/**
 * @file
 * Unit tests for src/stats: counters, ratios, histograms, tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "stats/counter.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

namespace gdiff {
namespace stats {
namespace {

TEST(Counter, Basics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Ratio, EmptyIsZero)
{
    Ratio r;
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    EXPECT_DOUBLE_EQ(r.percent(), 0.0);
}

TEST(Ratio, RecordsHitsAndMisses)
{
    Ratio r;
    r.record(true);
    r.record(true);
    r.record(false);
    r.record(false);
    EXPECT_EQ(r.hits(), 2u);
    EXPECT_EQ(r.total(), 4u);
    EXPECT_DOUBLE_EQ(r.value(), 0.5);
    EXPECT_DOUBLE_EQ(r.percent(), 50.0);
}

TEST(Ratio, BatchAccumulation)
{
    Ratio r;
    r.addBatch(3, 10);
    r.addBatch(7, 10);
    EXPECT_DOUBLE_EQ(r.value(), 0.5);
}

TEST(Average, Mean)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    a.record(2.0);
    a.record(4.0);
    a.record(6.0);
    EXPECT_DOUBLE_EQ(a.value(), 4.0);
    EXPECT_EQ(a.samples(), 3u);
}

TEST(Histogram, BucketsAndOverflow)
{
    // Values below 128 are counted exactly; larger ones land in the
    // log-linear buckets and leave every exact count alone.
    Histogram h;
    h.record(0);
    h.record(1);
    h.record(1);
    h.record(127);
    h.record(128);
    h.record(100000);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.count(127), 1u);
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_EQ(h.maxSample(), 100000u);
}

TEST(Histogram, MeanIncludesOverflowTrueValues)
{
    // The mean comes from the running sum, not from bucket edges.
    Histogram h;
    h.record(0);
    h.record(1000003);
    EXPECT_DOUBLE_EQ(h.mean(), 500001.5);
}

TEST(Histogram, Fractions)
{
    Histogram h;
    h.record(0);
    h.record(0);
    h.record(1);
    h.record(1);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
}

TEST(HistogramDeath, OutOfRangeBucket)
{
    // count() is exact only where buckets hold one value each.
    Histogram h;
    EXPECT_DEATH((void)h.count(128), "exact only below 128");
}

TEST(Counter, LargeAdditionsDoNotTruncate)
{
    Counter c;
    // Counts near 2^63 must keep full 64-bit precision (a billion-way
    // sweep's instruction totals land in this range).
    c.add(uint64_t(1) << 63);
    c.add((uint64_t(1) << 63) - 1);
    EXPECT_EQ(c.value(), ~uint64_t(0));
    c.reset();
    c.add(0);
    EXPECT_EQ(c.value(), 0u);
}

TEST(Ratio, ZeroTotalBatchIsHarmless)
{
    Ratio r;
    r.addBatch(0, 0);
    EXPECT_EQ(r.value(), 0.0);
    r.addBatch(3, 4);
    r.addBatch(0, 0);
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Histogram, PercentileOfSingleSample)
{
    Histogram h;
    h.record(5);
    // With one sample, every percentile is that sample.
    EXPECT_EQ(h.percentile(0.0), 5u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 5u);
}

TEST(Histogram, PercentileWalksTheDistribution)
{
    Histogram h;
    for (uint64_t v = 0; v < 10; ++v)
        h.record(v); // one sample in each of buckets 0..9
    EXPECT_EQ(h.percentile(0.0), 0u);  // smallest recorded sample
    EXPECT_EQ(h.percentile(0.1), 0u);  // ceil(0.1*10)=1 -> bucket 0
    EXPECT_EQ(h.percentile(0.5), 4u);  // ceil(0.5*10)=5 -> bucket 4
    EXPECT_EQ(h.percentile(0.95), 9u); // ceil(9.5)=10 -> bucket 9
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(Histogram, PercentileInOverflowReportsMaxSample)
{
    Histogram h;
    h.record(1);
    h.record(100);
    h.record(200);
    // The median is exact below 128 instead of saturating at the max.
    EXPECT_EQ(h.percentile(0.5), 100u);
    EXPECT_EQ(h.percentile(0.1), 1u);
    // 200 shares a two-wide bucket with 201; the top of that bucket
    // is capped at the largest sample actually seen.
    EXPECT_EQ(h.percentile(1.0), 200u);
    EXPECT_EQ(h.maxSample(), 200u);
}

TEST(Histogram, MergeOfDisjointRanges)
{
    // One thread's histogram saw only small samples, another's only
    // large ones (plus overflow) — exactly the shape obs::snapshot()
    // merges. The union must behave as if one histogram saw both.
    Histogram low, high;
    low.record(0);
    low.record(1);
    low.record(1);
    high.record(6);
    high.record(7);
    high.record(5000); // a log-linear bucket

    low.merge(high);
    EXPECT_EQ(low.samples(), 6u);
    EXPECT_EQ(low.count(1), 2u);
    EXPECT_EQ(low.count(6), 1u);
    EXPECT_EQ(low.count(50), 0u);
    EXPECT_EQ(low.maxSample(), 5000u);
    EXPECT_DOUBLE_EQ(low.mean(), (0 + 1 + 1 + 6 + 7 + 5000) / 6.0);
    EXPECT_EQ(low.percentile(0.5), 1u);
    EXPECT_EQ(low.percentile(1.0), 5000u);
}

TEST(Histogram, MergeWithEmptyIsIdentity)
{
    Histogram h, empty;
    h.record(2);
    h.merge(empty);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.percentile(1.0), 2u);

    empty.merge(h);
    EXPECT_EQ(empty.samples(), 1u);
    EXPECT_EQ(empty.count(2), 1u);
}

/**
 * Check every percentile of @p h against the exact order statistics
 * of @p values: never below, at most 1/64 above, exact below 128, and
 * never above maxSample().
 */
void
expectPercentilesWithinBound(const Histogram &h,
                             std::vector<uint64_t> values)
{
    std::sort(values.begin(), values.end());
    ASSERT_EQ(h.samples(), values.size());
    if (values.empty()) {
        EXPECT_EQ(h.percentile(0.5), 0u);
        return;
    }
    EXPECT_EQ(h.maxSample(), values.back());
    for (double p : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                     0.99, 0.999, 1.0}) {
        size_t need = static_cast<size_t>(
            std::ceil(p * static_cast<double>(values.size())));
        uint64_t exact = values[std::max<size_t>(need, 1) - 1];
        uint64_t got = h.percentile(p);
        EXPECT_GE(got, exact) << "p=" << p;
        EXPECT_LE(got - exact, exact / 64) << "p=" << p;
        EXPECT_LE(got, h.maxSample()) << "p=" << p;
        if (exact < 128) {
            EXPECT_EQ(got, exact) << "p=" << p;
        }
    }
}

Histogram
histogramOf(const std::vector<uint64_t> &values)
{
    Histogram h;
    for (uint64_t v : values)
        h.record(v);
    return h;
}

TEST(Histogram, PercentilesOnKnownDistributions)
{
    std::vector<uint64_t> uniform;
    for (uint64_t v = 1; v <= 1'000'000; ++v)
        uniform.push_back(v);
    expectPercentilesWithinBound(histogramOf(uniform), uniform);

    // Log-spread: every bit width from 0 to 64 is equally likely.
    std::mt19937_64 rng(7);
    std::vector<uint64_t> logSpread;
    for (int i = 0; i < 200'000; ++i)
        logSpread.push_back(rng() >> (rng() % 64));
    expectPercentilesWithinBound(histogramOf(logSpread), logSpread);

    std::vector<uint64_t> constant(1000, 123'456'789);
    expectPercentilesWithinBound(histogramOf(constant), constant);

    std::vector<uint64_t> twoPoints(500, 3);
    twoPoints.insert(twoPoints.end(), 500, uint64_t(1) << 40);
    expectPercentilesWithinBound(histogramOf(twoPoints), twoPoints);

    std::vector<uint64_t> top = {~uint64_t(0), ~uint64_t(0)};
    expectPercentilesWithinBound(histogramOf(top), top);
    EXPECT_EQ(histogramOf(top).percentile(0.5), ~uint64_t(0));

    expectPercentilesWithinBound(Histogram(), {});
}

TEST(Histogram, MergeOfFourEqualsTheUnion)
{
    // Four per-thread histograms, as obs::snapshot() merges them.
    // Samples stay below 2^32 so every running sum is exact and the
    // merged mean matches the union's bit for bit.
    std::mt19937_64 rng(11);
    Histogram parts[4];
    Histogram all;
    for (int i = 0; i < 40'000; ++i) {
        uint64_t v = (rng() >> 32) >> (rng() % 32);
        parts[i % 4].record(v);
        all.record(v);
    }
    Histogram merged;
    for (const Histogram &part : parts)
        merged.merge(part);
    EXPECT_EQ(merged.samples(), all.samples());
    EXPECT_EQ(merged.maxSample(), all.maxSample());
    EXPECT_EQ(merged.mean(), all.mean());
    for (uint64_t v = 0; v < 128; ++v)
        EXPECT_EQ(merged.count(v), all.count(v)) << "v=" << v;
    for (int k = 0; k <= 1000; ++k) {
        double p = k / 1000.0;
        EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p=" << p;
    }
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t("My Caption", "bench");
    t.addColumn("acc");
    t.addColumn("cov");
    t.beginRow("mcf");
    t.cellPercent(0.861);
    t.cellPercent(0.5);
    t.beginRow("parser");
    t.cellPercent(0.789);
    t.cellPercent(0.25, 2);

    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("My Caption"), std::string::npos);
    EXPECT_NE(out.find("86.1%"), std::string::npos);
    EXPECT_NE(out.find("78.9%"), std::string::npos);
    EXPECT_NE(out.find("25.00%"), std::string::npos);
    EXPECT_NE(out.find("mcf"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t("cap", "name");
    t.addColumn("v");
    t.beginRow("a");
    t.cellInt(42);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "name,v\na,42\n");
}

TEST(Table, CellTypes)
{
    Table t("cap", "k");
    t.addColumn("c1");
    t.addColumn("c2");
    t.addColumn("c3");
    t.beginRow("r");
    t.cellInt(-5);
    t.cellDouble(1.23456, 2);
    t.cell("text");
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("-5"), std::string::npos);
    EXPECT_NE(os.str().find("1.23"), std::string::npos);
    EXPECT_NE(os.str().find("text"), std::string::npos);
}

TEST(TableDeath, TooManyCells)
{
    Table t("cap", "k");
    t.addColumn("c");
    t.beginRow("r");
    t.cellInt(1);
    EXPECT_DEATH(t.cellInt(2), "too many cells");
}

TEST(TableDeath, ColumnAfterRows)
{
    Table t("cap", "k");
    t.addColumn("c");
    t.beginRow("r");
    EXPECT_DEATH(t.addColumn("late"), "before any row");
}

} // namespace
} // namespace stats
} // namespace gdiff
