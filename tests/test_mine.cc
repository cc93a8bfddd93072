/**
 * @file
 * Disagreement mining (src/check/mine.hh): target parsing, the
 * conflict counter, fingerprinting, and the full search → shrink →
 * cluster pipeline — including the two acceptance properties the CI
 * smoke leans on: the documented default pairs each yield at least
 * one small clustered witness on a fixed seed, and the whole report
 * (every digest included) is bit-identical across runs and thread
 * counts.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "check/fuzzer.hh"
#include "check/mine.hh"

namespace gdiff {
namespace {

check::MineTarget
target(const std::string &spec)
{
    check::MineTarget t;
    std::string error;
    EXPECT_TRUE(check::parseMineTarget(spec, t, error)) << error;
    return t;
}

TEST(MineTarget, ParsesFamiliesOrdersAndOracles)
{
    check::MineTarget t = target("gdiff-vs-gfcm");
    EXPECT_EQ(t.left.family, "gdiff");
    EXPECT_FALSE(t.left.oracle);
    EXPECT_EQ(t.left.order, 0u);
    EXPECT_EQ(t.right.family, "gfcm");
    EXPECT_EQ(t.name(), "gdiff-vs-gfcm");

    t = target("gdiff@1-vs-gdiff@4");
    EXPECT_EQ(t.left.order, 1u);
    EXPECT_EQ(t.right.order, 4u);
    EXPECT_EQ(t.name(), "gdiff@1-vs-gdiff@4");

    t = target("gdiff@8-vs-ref:gdiff@8");
    EXPECT_FALSE(t.left.oracle);
    EXPECT_TRUE(t.right.oracle);
    EXPECT_EQ(t.right.family, "gdiff");
    EXPECT_EQ(t.right.order, 8u);
    EXPECT_EQ(t.name(), "gdiff@8-vs-ref:gdiff@8");

    // Range ends are accepted; a family without an order takes any.
    t = target("gdiff2@16-vs-ref:fcm@4");
    EXPECT_EQ(t.left.order, 16u);
    EXPECT_NE(t.left.build(), nullptr);
    EXPECT_NE(t.right.build(), nullptr);
    t = target("gdiff@64-vs-stride@999");
    EXPECT_NE(t.left.build(), nullptr);
    EXPECT_NE(t.right.build(), nullptr);
}

TEST(MineTarget, RejectsMalformedSpecs)
{
    check::MineTarget t;
    std::string error;
    EXPECT_FALSE(check::parseMineTarget("gdiff", t, error));
    EXPECT_FALSE(check::parseMineTarget("gdiff-vs-", t, error));
    EXPECT_FALSE(check::parseMineTarget("-vs-gfcm", t, error));
    EXPECT_FALSE(check::parseMineTarget("gdiff-vs-warlock", t, error));
    EXPECT_NE(error.find("warlock"), std::string::npos);
    EXPECT_FALSE(
        check::parseMineTarget("gdiff@x-vs-gfcm", t, error));
    EXPECT_FALSE(
        check::parseMineTarget("ref:hybrid-vs-gdiff", t, error));

    // An order the family cannot build is a parse error, not an
    // assertion in its constructor.
    EXPECT_FALSE(check::parseMineTarget("gdiff@65-vs-gfcm", t, error));
    EXPECT_NE(error.find("order 65 is out of range 1..64 for gdiff"),
              std::string::npos)
        << error;
    EXPECT_FALSE(check::parseMineTarget("gdiff-vs-ref:fcm@5", t, error));
    EXPECT_FALSE(check::parseMineTarget("gfcm@9-vs-gdiff", t, error));
    EXPECT_FALSE(check::parseMineTarget("gdiff2@1-vs-gfcm", t, error));
    EXPECT_FALSE(
        check::parseMineTarget("gdiff@4294967297-vs-gfcm", t, error));
}

TEST(MineTarget, EverySideBuildsAFreshPredictor)
{
    for (const std::string &spec : check::defaultMineTargets()) {
        check::MineTarget t = target(spec);
        EXPECT_NE(t.left.build(), nullptr);
        EXPECT_NE(t.right.build(), nullptr);
    }
}

TEST(FuzzBehaviorWeights, EqualWeightsReproduceTheHistoricalStream)
{
    check::FuzzStreamConfig base;
    base.seed = 7;
    base.records = 2000;
    auto historical = check::fuzzValueStream(base);

    // Any uniform weighting (not just all-1) must keep the stream.
    check::FuzzStreamConfig scaled = base;
    scaled.behaviorWeights = {3, 3, 3, 3, 3, 3};
    EXPECT_EQ(check::streamDigest(check::fuzzValueStream(scaled)),
              check::streamDigest(historical));

    // A skewed mix must actually change the stream.
    check::FuzzStreamConfig skewed = base;
    skewed.behaviorWeights = {0, 9, 0, 1, 0, 0};
    EXPECT_NE(check::streamDigest(check::fuzzValueStream(skewed)),
              check::streamDigest(historical));
}

TEST(FuzzBehaviorWeights, SingleClassMixIsPure)
{
    // Only the noise class enabled: a gdiff-vs-gdiff self-pair never
    // conflicts, while distinct orders on pure follower/stride mixes
    // can. Here we just pin that generation honors the weights: with
    // only Constant enabled every site repeats one value forever, so
    // a last_value-vs-stride pair can never see a value conflict once
    // warmed (both always predict the repeated value).
    check::FuzzStreamConfig cfg;
    cfg.seed = 3;
    cfg.records = 1000;
    cfg.behaviorWeights = {1, 0, 0, 0, 0, 0};
    auto stream = check::fuzzValueStream(cfg);
    EXPECT_EQ(
        check::countConflicts(target("last_value-vs-stride"), stream),
        0u);
}

TEST(MineConflicts, SelfPairNeverConflicts)
{
    check::FuzzStreamConfig cfg;
    cfg.seed = 11;
    cfg.records = 3000;
    auto stream = check::fuzzValueStream(cfg);
    EXPECT_EQ(check::countConflicts(target("gdiff-vs-gdiff"), stream),
              0u);
}

TEST(MineConflicts, FirstDivergenceIsReported)
{
    check::FuzzStreamConfig cfg;
    cfg.seed = 5;
    cfg.records = 4096;
    auto stream = check::fuzzValueStream(cfg);
    check::MineTarget t = target("gdiff-vs-gfcm");
    check::Divergence first;
    uint64_t conflicts = check::countConflicts(t, stream, &first);
    ASSERT_GT(conflicts, 0u);
    EXPECT_LT(first.index, stream.size());
    EXPECT_EQ(first.pc, stream[first.index].pc);
    EXPECT_TRUE(first.prodPredicted);
    EXPECT_TRUE(first.refPredicted);
    EXPECT_NE(first.prodValue, first.refValue);
}

TEST(MineFingerprint, DetectsStructure)
{
    check::MineTarget t = target("gdiff-vs-gfcm");
    // Two interleaved striding sites: value period 2, pc period 2.
    std::vector<check::FuzzRecord> stream;
    for (int i = 0; i < 64; ++i) {
        stream.push_back({0x1000, 100 + 8 * i});
        stream.push_back({0x2000, -50 - 8 * i});
    }
    check::WitnessFingerprint fp = check::fingerprintWitness(t, stream);
    EXPECT_EQ(fp.phases, 2u);
    EXPECT_EQ(fp.valuePeriod, 2u);
    // Deltas alternate +/-: sign pattern packs the negatives.
    EXPECT_NE(fp.signPattern, 0u);
    EXPECT_FALSE(fp.key().empty());
    EXPECT_NE(fp.digest(), check::WitnessFingerprint{}.digest());
}

TEST(MineFingerprint, KeyAndDigestAgreeOnEquality)
{
    check::MineTarget t = target("gdiff-vs-gfcm");
    std::vector<check::FuzzRecord> a, b;
    for (int i = 0; i < 16; ++i) {
        a.push_back({0x4000, 3 * i});
        b.push_back({0x4000, 3 * i}); // identical structure
    }
    auto fa = check::fingerprintWitness(t, a);
    auto fb = check::fingerprintWitness(t, b);
    EXPECT_EQ(fa.key(), fb.key());
    EXPECT_EQ(fa.digest(), fb.digest());
}

check::MineConfig
smallConfig(const std::string &spec, unsigned threads = 1)
{
    check::MineConfig cfg;
    std::string error;
    EXPECT_TRUE(check::parseMineTarget(spec, cfg.target, error))
        << error;
    cfg.seed = 1;
    cfg.records = 1024;
    cfg.rounds = 6;
    cfg.restarts = 4;
    cfg.threads = threads;
    return cfg;
}

TEST(MineReport, DefaultPairsYieldShrunkenClusteredWitnesses)
{
    // Witness-size floors are themselves a mined finding: a
    // gdiff@1-vs-gdiff@4 disagreement shrinks below 10 records, but
    // gdiff(8)-vs-gfcm(4) conflicts need both global warm-ups live
    // at once — the miner never finds one below 12 records, however
    // hard the minimizer squeezes (ddmin + pairwise removal + site
    // unification). The floor is pinned here so a regression in
    // either predictor's warm-up shows up as a shift.
    const std::map<std::string, size_t> sizeFloor = {
        {"gdiff-vs-gfcm", 14}, {"gdiff@1-vs-gdiff@4", 10}};
    bool anyTiny = false;
    for (const std::string &spec : check::defaultMineTargets()) {
        check::MineReport report =
            check::mineDisagreements(smallConfig(spec));
        ASSERT_FALSE(report.witnesses.empty()) << spec;
        ASSERT_FALSE(report.clusters.empty()) << spec;
        size_t smallest = SIZE_MAX;
        for (const auto &w : report.witnesses) {
            // Every witness is minimized to a few dozen records at
            // most.
            EXPECT_LE(w.stream.size(), 32u) << spec;
            EXPECT_GE(w.conflicts, 1u) << spec;
            EXPECT_EQ(w.digest, check::streamDigest(w.stream));
            smallest = std::min(smallest, w.stream.size());
        }
        ASSERT_NE(sizeFloor.find(spec), sizeFloor.end()) << spec;
        EXPECT_LE(smallest, sizeFloor.at(spec)) << spec;
        anyTiny = anyTiny || smallest <= 10;
        // Every witness is in exactly one cluster.
        size_t members = 0;
        for (const auto &c : report.clusters)
            members += c.members.size();
        EXPECT_EQ(members, report.witnesses.size()) << spec;
    }
    // The acceptance bound: the miner demonstrably shrinks a
    // documented-pair disagreement to <= 10 records.
    EXPECT_TRUE(anyTiny);
}

TEST(MineReport, BitIdenticalAcrossRunsAndThreadCounts)
{
    const std::string spec = "gdiff-vs-gfcm";
    check::MineReport a =
        check::mineDisagreements(smallConfig(spec, 1));
    check::MineReport b =
        check::mineDisagreements(smallConfig(spec, 1));
    check::MineReport c =
        check::mineDisagreements(smallConfig(spec, 4));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.digest, c.digest);
    ASSERT_EQ(a.witnesses.size(), c.witnesses.size());
    for (size_t i = 0; i < a.witnesses.size(); ++i) {
        EXPECT_EQ(a.witnesses[i].digest, c.witnesses[i].digest);
        EXPECT_EQ(a.witnesses[i].fingerprint.key(),
                  c.witnesses[i].fingerprint.key());
    }
    EXPECT_EQ(check::mineReportJsonl(a), check::mineReportJsonl(c));
}

TEST(MineReport, SeedChangesTheSearch)
{
    check::MineConfig a = smallConfig("gdiff-vs-gfcm");
    check::MineConfig b = a;
    b.seed = 2;
    // Different seeds explore different streams; the reports need not
    // differ in *clusters*, but the mined witnesses almost surely do.
    check::MineReport ra = check::mineDisagreements(a);
    check::MineReport rb = check::mineDisagreements(b);
    ASSERT_FALSE(ra.witnesses.empty());
    ASSERT_FALSE(rb.witnesses.empty());
    bool anyDiff = ra.witnesses.size() != rb.witnesses.size();
    for (size_t i = 0;
         !anyDiff && i < ra.witnesses.size(); ++i)
        anyDiff = ra.witnesses[i].digest != rb.witnesses[i].digest;
    EXPECT_TRUE(anyDiff);
}

TEST(MineReport, RendersTableJsonlAndArtifactNames)
{
    check::MineReport report =
        check::mineDisagreements(smallConfig("gdiff-vs-gfcm"));
    std::ostringstream os;
    check::printMineReport(report, os);
    EXPECT_NE(os.str().find("blind spots: gdiff-vs-gfcm"),
              std::string::npos);
    EXPECT_NE(os.str().find("report digest:"), std::string::npos);

    std::string jsonl = check::mineReportJsonl(report);
    EXPECT_NE(jsonl.find("\"target\":\"gdiff-vs-gfcm\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"fingerprint\""), std::string::npos);

    EXPECT_EQ(check::mineArtifactName("gdiff@1-vs-ref:gdiff@1", 2),
              "gdiffmine_gdiff_1-vs-ref_gdiff_1_cluster2.gdtr");
}

} // namespace
} // namespace gdiff
