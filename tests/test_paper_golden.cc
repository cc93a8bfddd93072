/**
 * @file
 * Golden-number regression suite for the paper's headline figures.
 *
 * Table 2 (baseline IPC of the 4-wide, 64-entry-window machine),
 * Fig. 19 (speedup ratios of l_stride / l_context / gdiff(HGVQ) over
 * that baseline) and Fig. 18 (load-address coverage and accuracy of
 * local stride, gdiff and the Markov pair, plus the D-cache miss
 * rate, on a few kernels) are pinned, per kernel, against the
 * checked-in JSON under tests/golden. The simulator is integer-deterministic, so at a
 * fixed budget every metric is bit-reproducible; any drift means a
 * model change, intentional or not.
 *
 * When a change is intentional, regenerate the golden files with:
 *
 *   ./build/tests/test_paper_golden --update-golden
 *
 * which rewrites the files under tests/golden in the source tree;
 * review the diff like any other code change.
 *
 * Golden file format: every pinned entry is either a bare number
 * (compared within the file's "default_tolerance") or an object
 * {"value": v, "tol": t} for values that need a looser per-value
 * tolerance (e.g. if a platform ever exhibits FP wobble on one cell).
 *
 * The measurement budget is deliberately small (60k measured
 * instructions) so the full 40-cell pipeline sweep stays a few
 * seconds; the suite pins *this* budget's numbers, not the paper-scale
 * bench runs. Budgets are recorded in the golden files and verified,
 * so a budget change here fails loudly instead of comparing apples to
 * oranges.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/gdiff.hh"
#include "predictors/markov.hh"
#include "predictors/stride.hh"
#include "runner/runner.hh"
#include "sim/profile.hh"
#include "util/json.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

bool updateGolden = false;

constexpr uint64_t kInstructions = 60'000;
constexpr uint64_t kWarmup = 10'000;
constexpr unsigned kOrder = 32; // paper order for pipeline studies
constexpr uint64_t kTable = 8192;
constexpr uint64_t kSeed = 1;

const std::vector<std::string> kVpSchemes = {"l_stride", "l_context",
                                             "hgvq"};

/** Everything both golden files pin, measured in one shared sweep. */
struct Measured
{
    /// Table 2: workload -> baseline IPC
    std::map<std::string, double> baseIpc;
    /// Fig. 19: workload -> scheme -> IPC ratio over baseline
    std::map<std::string, std::map<std::string, double>> speedup;
    /// Fig. 19 H_mean row: scheme -> harmonic-mean speedup ratio
    std::map<std::string, double> hmean;
};

const Measured &
measured()
{
    static const Measured m = [] {
        runner::SweepSpec spec;
        spec.mode = runner::JobMode::Pipeline;
        spec.schemes = {"baseline", "l_stride", "l_context", "hgvq"};
        spec.orders = {kOrder};
        spec.tables = {kTable};
        spec.seeds = {kSeed};
        spec.defaultInstructions = kInstructions;
        spec.warmup = kWarmup;

        runner::SweepRunner sweep(spec);
        runner::CollectingSink results;
        sweep.addSink(results);
        runner::SweepOptions ropt;
        ropt.threads = 4; // metrics are thread-count invariant
        sweep.run(ropt);

        std::map<std::string, std::map<std::string, double>> ipc;
        for (const auto &r : results.records())
            ipc[r.spec.workload][r.spec.scheme] =
                r.result.metric("ipc");

        Measured out;
        std::map<std::string, double> invSum;
        size_t n = 0;
        for (const auto &name : workload::specWorkloadNames()) {
            double ipc0 = ipc.at(name).at("baseline");
            out.baseIpc[name] = ipc0;
            for (const auto &scheme : kVpSchemes) {
                double r = ipc.at(name).at(scheme) / ipc0;
                out.speedup[name][scheme] = r;
                invSum[scheme] += 1.0 / r;
            }
            ++n;
        }
        for (const auto &scheme : kVpSchemes)
            out.hmean[scheme] =
                static_cast<double>(n) / invSum.at(scheme);
        return out;
    }();
    return m;
}

/// Fig. 18 kernels: a few of the ten keep the address pass quick.
const std::vector<std::string> kFig18Kernels = {"gcc", "gzip", "mcf",
                                                "twolf"};

/// Fig. 18: kernel -> "series.metric" or "dcache_miss_rate" -> value
using Fig18Measured =
    std::map<std::string, std::map<std::string, double>>;

/**
 * The fig18_load_addresses configuration (its 256K-entry Markov pass)
 * at this suite's budget: 4K-entry local stride and order-8 gdiff,
 * then the Markov pair on all loads and on missing loads.
 */
const Fig18Measured &
fig18Measured()
{
    static const Fig18Measured m = [] {
        Fig18Measured out;
        for (const auto &name : kFig18Kernels) {
            predictors::StridePredictor ls(4096);
            core::GDiffConfig gcfg;
            gcfg.order = 8;
            gcfg.tableEntries = 4096;
            core::GDiffPredictor gs(gcfg);
            predictors::MarkovPredictor all(256 * 1024, 4);
            predictors::MarkovPredictor misses(256 * 1024, 4);

            sim::ProfileConfig pcfg;
            pcfg.maxInstructions = kInstructions;
            pcfg.warmupInstructions = kWarmup;
            sim::AddressProfileRunner runner(pcfg);
            runner.addPredictor(ls);
            runner.addPredictor(gs);
            runner.setMarkov(all, misses);
            workload::Workload w = workload::makeWorkload(name, kSeed);
            auto exec = w.makeExecutor();
            runner.run(*exec);

            auto &row = out[name];
            row["dcache_miss_rate"] = runner.dcacheMissRate();
            for (const auto &s : runner.results()) {
                row[s.name + ".coverageAll"] = s.coverageAll.value();
                row[s.name + ".accuracyAll"] = s.accuracyAll.value();
                row[s.name + ".coverageMiss"] = s.coverageMiss.value();
                row[s.name + ".accuracyMiss"] = s.accuracyMiss.value();
            }
        }
        return out;
    }();
    return m;
}

std::string
goldenPath(const char *file)
{
    return std::string(GDIFF_GOLDEN_DIR "/") + file;
}

/** Shortest round-trippable decimal form of a double. */
std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeGoldenFile(const char *file, const std::string &body)
{
    std::string path = goldenPath(file);
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write golden file " << path;
    os << body;
    os.close();
    ASSERT_TRUE(os.good()) << "short write to golden file " << path;
    std::printf("updated %s\n", path.c_str());
}

json::Value
loadGoldenFile(const char *file)
{
    std::string path = goldenPath(file);
    std::ifstream is(path);
    EXPECT_TRUE(is.good())
        << "missing golden file " << path
        << " — generate it with: test_paper_golden --update-golden";
    std::stringstream ss;
    ss << is.rdbuf();
    json::Value root;
    std::string error;
    EXPECT_TRUE(json::parse(ss.str(), root, &error))
        << path << ": " << error;
    return root;
}

/** A pinned value: bare number or {"value": v, "tol": t}. */
void
entryOf(const json::Value &v, double defaultTol, double &value,
        double &tol)
{
    if (v.isNumber()) {
        value = v.asNumber();
        tol = defaultTol;
        return;
    }
    value = v.at("value").asNumber();
    const json::Value *t = v.find("tol");
    tol = t ? t->asNumber() : defaultTol;
}

/**
 * Compare one measured value against its pinned entry, failing with a
 * self-contained diff (what drifted, by how much, how to regenerate).
 */
void
expectGolden(const char *file, const std::string &key, double golden,
             double tol, double got)
{
    if (std::abs(got - golden) <= tol)
        return;
    ADD_FAILURE() << file << ": " << key
                  << " drifted from the pinned value\n"
                  << "  golden:   " << fmt(golden) << " (tol " << tol
                  << ")\n"
                  << "  measured: " << fmt(got) << "\n"
                  << "  |diff|:   " << fmt(std::abs(got - golden))
                  << "\n"
                  << "If this change is intentional, regenerate with:\n"
                  << "  test_paper_golden --update-golden\n"
                  << "and review the tests/golden/ diff.";
}

/** The run budget pinned in @p root must match the compiled budget. */
void
checkBudget(const char *file, const json::Value &root)
{
    EXPECT_EQ(root.at("instructions").asNumber(),
              static_cast<double>(kInstructions))
        << file << " was generated at a different instruction budget;"
        << " regenerate with --update-golden";
    EXPECT_EQ(root.at("warmup").asNumber(),
              static_cast<double>(kWarmup))
        << file << " was generated at a different warmup budget;"
        << " regenerate with --update-golden";
}

std::string
budgetJson()
{
    std::ostringstream os;
    os << "  \"instructions\": " << kInstructions << ",\n"
       << "  \"warmup\": " << kWarmup << ",\n"
       << "  \"default_tolerance\": 1e-09,\n";
    return os.str();
}

} // namespace

TEST(PaperGolden, Table2BaselineIpc)
{
    const char *file = "table2_ipc.json";
    const Measured &m = measured();

    if (updateGolden) {
        std::ostringstream os;
        os << "{\n" << budgetJson() << "  \"ipc\": {\n";
        bool first = true;
        for (const auto &[name, ipc] : m.baseIpc) {
            os << (first ? "" : ",\n") << "    \"" << name
               << "\": " << fmt(ipc);
            first = false;
        }
        os << "\n  }\n}\n";
        writeGoldenFile(file, os.str());
        return;
    }

    json::Value root = loadGoldenFile(file);
    if (!root.isObject())
        return; // load already failed the test
    checkBudget(file, root);
    double defTol = root.at("default_tolerance").asNumber();

    const json::Value &ipc = root.at("ipc");
    // Every pinned kernel must still exist and match...
    for (const auto &[name, golden] : ipc.object) {
        auto it = m.baseIpc.find(name);
        if (it == m.baseIpc.end()) {
            ADD_FAILURE() << file << " pins unknown workload '" << name
                          << "' — regenerate with --update-golden";
            continue;
        }
        double value, tol;
        entryOf(golden, defTol, value, tol);
        expectGolden(file, "ipc[" + name + "]", value, tol,
                     it->second);
    }
    // ...and every current kernel must be pinned.
    for (const auto &[name, value] : m.baseIpc) {
        (void)value;
        EXPECT_NE(ipc.find(name), nullptr)
            << file << " does not pin workload '" << name
            << "' — regenerate with --update-golden";
    }
}

TEST(PaperGolden, Fig19SpeedupRatios)
{
    const char *file = "fig19_speedup.json";
    const Measured &m = measured();

    if (updateGolden) {
        std::ostringstream os;
        os << "{\n" << budgetJson() << "  \"speedup\": {\n";
        bool firstW = true;
        for (const auto &[name, schemes] : m.speedup) {
            os << (firstW ? "" : ",\n") << "    \"" << name
               << "\": {";
            bool firstS = true;
            for (const auto &scheme : kVpSchemes) {
                os << (firstS ? "" : ", ") << "\"" << scheme
                   << "\": " << fmt(schemes.at(scheme));
                firstS = false;
            }
            os << "}";
            firstW = false;
        }
        os << "\n  },\n  \"hmean\": {";
        bool firstS = true;
        for (const auto &scheme : kVpSchemes) {
            os << (firstS ? "" : ", ") << "\"" << scheme
               << "\": " << fmt(m.hmean.at(scheme));
            firstS = false;
        }
        os << "}\n}\n";
        writeGoldenFile(file, os.str());
        return;
    }

    json::Value root = loadGoldenFile(file);
    if (!root.isObject())
        return;
    checkBudget(file, root);
    double defTol = root.at("default_tolerance").asNumber();

    const json::Value &speedup = root.at("speedup");
    for (const auto &[name, schemes] : speedup.object) {
        auto it = m.speedup.find(name);
        if (it == m.speedup.end()) {
            ADD_FAILURE() << file << " pins unknown workload '" << name
                          << "' — regenerate with --update-golden";
            continue;
        }
        for (const auto &[scheme, golden] : schemes.object) {
            auto sit = it->second.find(scheme);
            if (sit == it->second.end()) {
                ADD_FAILURE()
                    << file << " pins unknown scheme '" << scheme
                    << "' — regenerate with --update-golden";
                continue;
            }
            double value, tol;
            entryOf(golden, defTol, value, tol);
            expectGolden(file,
                         "speedup[" + name + "][" + scheme + "]",
                         value, tol, sit->second);
        }
    }
    for (const auto &[name, schemes] : m.speedup) {
        (void)schemes;
        EXPECT_NE(speedup.find(name), nullptr)
            << file << " does not pin workload '" << name
            << "' — regenerate with --update-golden";
    }

    const json::Value &hmean = root.at("hmean");
    for (const auto &scheme : kVpSchemes) {
        const json::Value *golden = hmean.find(scheme);
        if (!golden) {
            ADD_FAILURE() << file << " does not pin hmean[" << scheme
                          << "] — regenerate with --update-golden";
            continue;
        }
        double value, tol;
        entryOf(*golden, defTol, value, tol);
        expectGolden(file, "hmean[" + scheme + "]", value, tol,
                     m.hmean.at(scheme));
    }
}

TEST(PaperGolden, Fig18AddressPredictability)
{
    const char *file = "fig18_addresses.json";
    const Fig18Measured &m = fig18Measured();

    if (updateGolden) {
        std::ostringstream os;
        os << "{\n" << budgetJson() << "  \"kernels\": {\n";
        bool firstK = true;
        for (const auto &[name, metrics] : m) {
            os << (firstK ? "" : ",\n") << "    \"" << name << "\": {";
            bool first = true;
            for (const auto &[key, value] : metrics) {
                os << (first ? "\n" : ",\n") << "      \"" << key
                   << "\": " << fmt(value);
                first = false;
            }
            os << "\n    }";
            firstK = false;
        }
        os << "\n  }\n}\n";
        writeGoldenFile(file, os.str());
        return;
    }

    json::Value root = loadGoldenFile(file);
    if (!root.isObject())
        return;
    checkBudget(file, root);
    double defTol = root.at("default_tolerance").asNumber();

    const json::Value &kernels = root.at("kernels");
    // Every measured value must be pinned and match...
    for (const auto &[name, metrics] : m) {
        const json::Value *pinned = kernels.find(name);
        if (!pinned) {
            ADD_FAILURE() << file << " does not pin workload '" << name
                          << "' — regenerate with --update-golden";
            continue;
        }
        for (const auto &[key, got] : metrics) {
            const json::Value *golden = pinned->find(key);
            if (!golden) {
                ADD_FAILURE() << file << " does not pin " << name
                              << "." << key
                              << " — regenerate with --update-golden";
                continue;
            }
            double value, tol;
            entryOf(*golden, defTol, value, tol);
            expectGolden(file, name + "." + key, value, tol, got);
        }
    }
    // ...and every pinned value must still be measured.
    for (const auto &[name, metrics] : kernels.object) {
        auto it = m.find(name);
        if (it == m.end()) {
            ADD_FAILURE() << file << " pins unmeasured workload '"
                          << name << "' — regenerate with "
                          << "--update-golden";
            continue;
        }
        for (const auto &[key, golden] : metrics.object) {
            (void)golden;
            EXPECT_TRUE(it->second.count(key))
                << file << " pins unmeasured " << name << "." << key
                << " — regenerate with --update-golden";
        }
    }
}

/**
 * The paper's qualitative claims hold at any budget and never need
 * regeneration: gdiff(HGVQ) must beat the baseline on harmonic mean,
 * and mcf (the memory-bound kernel) must see the largest gdiff gain.
 */
TEST(PaperGolden, QualitativeShape)
{
    if (updateGolden)
        GTEST_SKIP() << "update mode only rewrites golden files";
    const Measured &m = measured();
    EXPECT_GT(m.hmean.at("hgvq"), 1.0);
    double mcfGain = m.speedup.at("mcf").at("hgvq");
    for (const auto &[name, schemes] : m.speedup)
        EXPECT_LE(schemes.at("hgvq"), mcfGain + 1e-12)
            << name << " out-gains mcf under gdiff(HGVQ)";
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-golden")
            updateGolden = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
