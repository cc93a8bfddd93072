/**
 * @file
 * Sweep-runner tests: grid parsing/expansion, the thread pool, the
 * determinism contract (identical per-job metrics for 1 vs 4
 * threads, compared order-independently on the JSON-lines output),
 * resume from the JSON-lines results file (including after a
 * SIGKILL), and the structured sinks.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/factory.hh"
#include "runner/runner.hh"
#include "stats/table.hh"
#include "util/json.hh"
#include "util/parse.hh"

namespace gdiff {
namespace runner {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/gdiff_runner_" + tag;
}

/** A fast ≥24-job grid over the cheap micro kernels. */
SweepSpec
smallGrid()
{
    SweepSpec spec;
    spec.mode = JobMode::Profile;
    spec.workloads = {"micro.stride", "micro.periodic",
                      "micro.pairsum"};
    spec.predictors = {"stride", "gdiff"};
    spec.orders = {4, 8};
    spec.seeds = {1, 2};
    spec.defaultInstructions = 12'000;
    spec.warmup = 1'000;
    return spec;
}

// ------------------------------------------------------ grid parsing

TEST(SweepSpecTest, ParseGridAxes)
{
    SweepSpec s = SweepSpec::parseGrid(
        "workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;"
        "order=4,8");
    EXPECT_EQ(s.mode, JobMode::Profile);
    EXPECT_EQ(s.workloads,
              (std::vector<std::string>{"mcf", "parser", "gzip"}));
    EXPECT_EQ(s.predictors,
              (std::vector<std::string>{"stride", "dfcm", "gdiff"}));
    EXPECT_EQ(s.orders, (std::vector<unsigned>{4, 8}));
    EXPECT_EQ(s.jobCount(), 3u * 3u * 2u);
}

TEST(SweepSpecTest, SchemeAxisImpliesPipelineMode)
{
    SweepSpec s =
        SweepSpec::parseGrid("workload=mcf;scheme=baseline,hgvq");
    EXPECT_EQ(s.mode, JobMode::Pipeline);
    EXPECT_EQ(s.schemes,
              (std::vector<std::string>{"baseline", "hgvq"}));
}

TEST(SweepSpecTest, NumericAxes)
{
    SweepSpec s = SweepSpec::parseGrid(
        "table=0,8192;seed=7;instructions=5000");
    EXPECT_EQ(s.tables, (std::vector<uint64_t>{0, 8192}));
    EXPECT_EQ(s.seeds, (std::vector<uint64_t>{7}));
    EXPECT_EQ(s.instructionWindows, (std::vector<uint64_t>{5000}));
}

TEST(SweepSpecDeath, UnknownAxisIsFatal)
{
    EXPECT_EXIT(SweepSpec::parseGrid("flavour=vanilla"),
                ::testing::ExitedWithCode(1), "unknown axis");
}

TEST(SweepSpecDeath, MalformedNumberIsFatal)
{
    EXPECT_EXIT(SweepSpec::parseGrid("order=2m"),
                ::testing::ExitedWithCode(1), "invalid number");
}

TEST(SweepSpecDeath, MixedPredictorAndSchemeIsFatal)
{
    EXPECT_EXIT(SweepSpec::parseGrid("predictor=stride;scheme=hgvq"),
                ::testing::ExitedWithCode(1), "requires mode");
}

TEST(SweepSpecTest, ExpansionIsStableAndComplete)
{
    SweepSpec spec = smallGrid();
    std::vector<JobSpec> a = spec.expand();
    std::vector<JobSpec> b = spec.expand();
    ASSERT_EQ(a.size(), 24u);
    ASSERT_EQ(spec.jobCount(), a.size());
    std::set<std::string> keys;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key(), b[i].key());
        keys.insert(a[i].key());
    }
    // All cells distinct.
    EXPECT_EQ(keys.size(), a.size());
}

// ------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.forEach(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ZeroJobsIsANoOp)
{
    ThreadPool pool(4);
    pool.forEach(0, [&](size_t) { FAIL() << "no task expected"; });
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threads(), 1u);
}

// ------------------------------------------------- strict flag parse

TEST(ParseFlagTest, AcceptsPlainDecimal)
{
    EXPECT_EQ(parseU64Flag("--x", "2000000"), 2'000'000u);
    EXPECT_EQ(parseU64Flag("--x", "0", true), 0u);
}

TEST(ParseFlagDeath, RejectsTrailingGarbage)
{
    EXPECT_EXIT(parseU64Flag("--instructions", "2m"),
                ::testing::ExitedWithCode(1), "invalid number");
}

TEST(ParseFlagDeath, RejectsEmptyNegativeZeroAndOverflow)
{
    EXPECT_EXIT(parseU64Flag("--x", ""),
                ::testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(parseU64Flag("--x", "-3"),
                ::testing::ExitedWithCode(1), "invalid number");
    EXPECT_EXIT(parseU64Flag("--x", "0"),
                ::testing::ExitedWithCode(1), "non-zero");
    EXPECT_EXIT(parseU64Flag("--x", "99999999999999999999999"),
                ::testing::ExitedWithCode(1), "out of range");
}

// ------------------------------------------------------- determinism

/** Parse a jsonl file into {deterministic-identity → metrics-json}. */
std::map<std::string, std::string>
readJsonl(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string line;
    while (std::getline(in, line)) {
        auto mpos = line.find("\"metrics\":");
        auto mend = line.find('}', mpos);
        EXPECT_NE(mpos, std::string::npos) << line;
        EXPECT_NE(mend, std::string::npos) << line;
        if (mpos == std::string::npos || mend == std::string::npos)
            continue;
        // Identity: everything before "metrics" minus the trailing
        // comma; metrics: the braced object.
        std::string identity = line.substr(0, mpos);
        std::string metrics = line.substr(mpos, mend - mpos + 1);
        EXPECT_TRUE(out.emplace(identity, metrics).second)
            << "duplicate job line: " << identity;
    }
    return out;
}

TEST(SweepRunnerTest, MetricsBitIdenticalAcrossThreadCounts)
{
    std::string p1 = tempPath("t1.jsonl");
    std::string p4 = tempPath("t4.jsonl");

    for (auto [threads, path] :
         {std::pair<unsigned, std::string>{1, p1}, {4, p4}}) {
        SweepRunner sweep(smallGrid());
        JsonlSink jsonl(path);
        sweep.addSink(jsonl);
        SweepOptions opt;
        opt.threads = threads;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.totalJobs, 24u);
        EXPECT_EQ(s.ranJobs, 24u);
        EXPECT_EQ(s.skippedJobs, 0u);
    }

    auto r1 = readJsonl(p1);
    auto r4 = readJsonl(p4);
    ASSERT_EQ(r1.size(), 24u);
    // Order-independent: compare as identity→metrics maps. Metric
    // strings are %.17g renderings, so equality is bit-identity.
    EXPECT_EQ(r1, r4);
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST(SweepRunnerTest, PipelineJobsDeterministicToo)
{
    SweepSpec spec;
    spec.mode = JobMode::Pipeline;
    spec.workloads = {"micro.stride", "micro.spillfill"};
    spec.schemes = {"baseline", "hgvq"};
    spec.orders = {16};
    spec.defaultInstructions = 8'000;
    spec.warmup = 500;

    auto metricsAt = [&](unsigned threads) {
        SweepRunner sweep(spec);
        CollectingSink collect;
        sweep.addSink(collect);
        SweepOptions opt;
        opt.threads = threads;
        sweep.run(opt);
        std::map<std::string, std::vector<std::pair<std::string,
                                                    double>>> out;
        for (const auto &r : collect.records())
            out[r.spec.key()] = r.result.metrics;
        return out;
    };
    auto m1 = metricsAt(1);
    auto m3 = metricsAt(3);
    ASSERT_EQ(m1.size(), 4u);
    EXPECT_EQ(m1, m3); // exact double equality, key by key
}

// ------------------------------------------------------------ resume

/** Records which grid indices ran and which were recovered. */
struct ResumeLog : ResultSink
{
    std::set<size_t> ran, recovered;
    void onJob(const JobRecord &r) override { ran.insert(r.index); }
    void onRecovered(const JobRecord &r) override
    {
        recovered.insert(r.index);
    }
};

/** @return the file's lines, sorted. */
std::vector<std::string>
sortedLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

size_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<size_t>(in.tellg());
}

/** Run @p jobs on one thread into a deterministic-only jsonl file. */
void
writeResults(const std::vector<JobSpec> &jobs, const std::string &path,
             bool append = false)
{
    SweepRunner sweep(jobs);
    JsonlSink jsonl(path, append, /*deterministicOnly=*/true);
    sweep.addSink(jsonl);
    SweepOptions opt;
    opt.threads = 1;
    sweep.run(opt);
}

TEST(SweepRunnerTest, ResumeSkipsJobsInResultsFile)
{
    std::string path = tempPath("resume.jsonl");
    SweepSpec spec = smallGrid();

    // Commit the odd half of the grid, as if a previous run was
    // killed partway. Written as its own 12-job sweep, the records
    // carry indices 0..11, so the resume must match them by key.
    std::vector<JobSpec> jobs = spec.expand();
    std::vector<JobSpec> odd;
    for (size_t i = 1; i < jobs.size(); i += 2)
        odd.push_back(jobs[i]);
    writeResults(odd, path);

    {
        std::vector<JobRecord> done;
        std::string error;
        ASSERT_TRUE(recoverResults(path, done, &error)) << error;
        ASSERT_EQ(done.size(), 12u);
        SweepRunner sweep(spec);
        ResumeLog log;
        JsonlSink jsonl(path, /*append=*/true, true);
        sweep.addSink(log);
        sweep.addSink(jsonl);
        SweepOptions opt;
        opt.threads = 2;
        opt.resumed = std::move(done);
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.totalJobs, 24u);
        EXPECT_EQ(s.skippedJobs, 12u);
        EXPECT_EQ(s.ranJobs, 12u);
        // The jobs that ran are exactly the half not already written,
        // and the written half reached the sinks at its grid index.
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(log.ran.count(i), i % 2 == 0 ? 1u : 0u) << i;
            EXPECT_EQ(log.recovered.count(i), i % 2 == 1 ? 1u : 0u)
                << i;
        }
    }

    // Second resume: everything is recorded now, nothing runs.
    {
        std::vector<JobRecord> done;
        ASSERT_TRUE(recoverResults(path, done));
        EXPECT_EQ(done.size(), 24u);
        SweepRunner sweep(spec);
        SweepOptions opt;
        opt.resumed = std::move(done);
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.ranJobs, 0u);
        EXPECT_EQ(s.skippedJobs, 24u);
    }
    std::remove(path.c_str());
}

TEST(SweepRunnerTest, ResumeAfterSigkillMatchesUninterruptedRun)
{
    std::string full = tempPath("uninterrupted.jsonl");
    std::string killed = tempPath("killed.jsonl");
    std::string csv = tempPath("resumed.csv");
    SweepSpec spec = smallGrid();
    writeResults(spec.expand(), full);

    // The child dies by SIGKILL right after the k-th job's line is
    // flushed: no destructor, no finish(), no buffered sink output.
    constexpr size_t k = 7;
    std::remove(killed.c_str());
    pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        struct KillAfter : ResultSink
        {
            size_t left = k;
            void onJob(const JobRecord &) override
            {
                if (--left == 0)
                    std::raise(SIGKILL);
            }
        } killer;
        SweepRunner sweep(spec);
        JsonlSink jsonl(killed, false, /*deterministicOnly=*/true);
        sweep.addSink(jsonl);
        sweep.addSink(killer);
        SweepOptions opt;
        opt.threads = 1;
        sweep.run(opt);
        _exit(0); // not reached: the grid holds more than k jobs
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    std::vector<JobRecord> done;
    std::string error;
    ASSERT_TRUE(recoverResults(killed, done, &error)) << error;
    EXPECT_EQ(done.size(), k);
    {
        SweepRunner sweep(spec);
        JsonlSink jsonl(killed, /*append=*/true, true);
        CsvSink table(csv);
        sweep.addSink(jsonl);
        sweep.addSink(table);
        SweepOptions opt;
        opt.threads = 2;
        opt.resumed = std::move(done);
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.skippedJobs, k);
        EXPECT_EQ(s.ranJobs, 24u - k);
    }

    // Each job once, and byte-identical to the uninterrupted run.
    std::vector<std::string> lines = sortedLines(killed);
    std::set<std::string> keys;
    for (const std::string &line : lines) {
        JobRecord rec;
        json::Value v;
        ASSERT_TRUE(json::parse(line, v) && parseRecordJson(v, rec))
            << line;
        EXPECT_TRUE(keys.insert(rec.spec.key()).second)
            << "duplicate job " << rec.spec.key();
    }
    EXPECT_EQ(keys.size(), 24u);
    EXPECT_EQ(lines, sortedLines(full));
    // The CSV of the resumed run holds the whole grid: a header plus
    // one row per job.
    EXPECT_EQ(sortedLines(csv).size(), 25u);
    std::remove(full.c_str());
    std::remove(killed.c_str());
    std::remove(csv.c_str());
}

TEST(SweepRunnerTest, CancelFlagStopsDispatchButKeepsCompletedWork)
{
    SweepSpec spec = smallGrid();

    // Pre-set cancellation: nothing may dispatch, but the sinks must
    // still be finished so buffered output flushes.
    {
        std::atomic<bool> cancel{true};
        SweepRunner sweep(spec);
        CollectingSink collect;
        sweep.addSink(collect);
        SweepOptions opt;
        opt.cancel = &cancel;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.ranJobs, 0u);
        EXPECT_EQ(s.canceledJobs, 24u);
        EXPECT_TRUE(collect.records().empty());
    }

    // Cancel after the first job reaches a sink: the remaining grid
    // is skipped, and everything that completed stays delivered.
    {
        std::atomic<bool> cancel{false};
        SweepRunner sweep(spec);
        CollectingSink collect;

        struct Tripwire : ResultSink
        {
            std::atomic<bool> *flag;
            explicit Tripwire(std::atomic<bool> *flag) : flag(flag) {}
            void onJob(const JobRecord &) override
            {
                flag->store(true, std::memory_order_relaxed);
            }
        } trip(&cancel);

        sweep.addSink(trip);
        sweep.addSink(collect);
        SweepOptions opt;
        opt.threads = 1;
        opt.cancel = &cancel;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.ranJobs, 1u);
        EXPECT_EQ(s.canceledJobs, 23u);
        EXPECT_EQ(s.ranJobs + s.canceledJobs, s.totalJobs);
        EXPECT_EQ(collect.records().size(), 1u);
    }
}

TEST(ResumeTest, ResultsFilePersistsAcrossReopen)
{
    std::string path = tempPath("reopen.jsonl");
    std::remove(path.c_str());
    JobSpec a, b, c;
    a.workload = "micro.stride";
    b.workload = "micro.periodic";
    c.workload = "micro.pairsum";
    auto record = [](size_t index, const JobSpec &spec) {
        JobRecord rec{index, spec, {}};
        rec.result.metrics = {{"accuracy", 0.25}};
        rec.result.wallSeconds = 1.5;
        return rec;
    };
    std::vector<JobRecord> done;
    ASSERT_TRUE(recoverResults(path, done)); // missing file: no jobs
    EXPECT_TRUE(done.empty());
    {
        JsonlSink sink(path);
        sink.onJob(record(0, a));
        sink.onJob(record(1, b));
        // A recovered record is already in the file: not rewritten.
        sink.onRecovered(record(0, a));
        sink.finish();
    }
    auto keysIn = [&] {
        std::vector<JobRecord> recs;
        std::string error;
        EXPECT_TRUE(recoverResults(path, recs, &error)) << error;
        std::set<std::string> keys;
        for (const auto &r : recs) {
            keys.insert(r.spec.key());
            EXPECT_EQ(r.result.wallSeconds, 1.5); // timing kept
        }
        EXPECT_EQ(keys.size(), recs.size()) << "duplicate line";
        return keys;
    };
    std::set<std::string> keys = keysIn();
    EXPECT_TRUE(keys.count(a.key()));
    EXPECT_TRUE(keys.count(b.key()));
    EXPECT_FALSE(keys.count(c.key()));
    EXPECT_EQ(keys.size(), 2u);
    // Reading a clean file does not change it.
    EXPECT_EQ(keysIn(), keys);
    std::remove(path.c_str());
}

TEST(ResumeTest, DropsTornFinalLine)
{
    std::string path = tempPath("torn.jsonl");
    SweepSpec spec = smallGrid();
    std::vector<JobSpec> jobs = spec.expand();
    writeResults({jobs[0], jobs[1]}, path);
    const size_t committed = fileSize(path);
    {
        // A kill mid-write leaves part of a line and no newline.
        std::ofstream out(path, std::ios::app);
        out << "{\"workload\":\"micro.str";
    }
    std::vector<JobRecord> done;
    std::string error;
    ASSERT_TRUE(recoverResults(path, done, &error)) << error;
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].spec.key(), jobs[0].key());
    EXPECT_EQ(done[1].spec.key(), jobs[1].key());
    // The torn bytes are gone, so the next append starts a clean line.
    EXPECT_EQ(fileSize(path), committed);
    writeResults({jobs[2]}, path, /*append=*/true);
    ASSERT_TRUE(recoverResults(path, done, &error)) << error;
    EXPECT_EQ(done.size(), 3u);
    std::remove(path.c_str());
}

TEST(ResumeTest, BadMiddleLineIsAnErrorNamingTheLine)
{
    std::string path = tempPath("bad_middle.jsonl");
    SweepSpec spec = smallGrid();
    std::vector<JobSpec> jobs = spec.expand();
    for (const char *bad : {"{not json", "{\"workload\":\"mcf\"}"}) {
        writeResults({jobs[0]}, path);
        {
            std::ofstream out(path, std::ios::app);
            out << bad << "\n";
        }
        writeResults({jobs[1]}, path, /*append=*/true);
        const size_t size = fileSize(path);
        std::vector<JobRecord> done;
        std::string error;
        EXPECT_FALSE(recoverResults(path, done, &error)) << bad;
        EXPECT_NE(error.find(path + ": line 2: "), std::string::npos)
            << error;
        EXPECT_TRUE(done.empty());
        EXPECT_EQ(fileSize(path), size); // left untouched
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------------- sinks

TEST(SinkTest, CsvRowsSortedByGridIndex)
{
    std::string path = tempPath("out.csv");
    SweepSpec spec = smallGrid();
    SweepRunner sweep(spec);
    CsvSink csv(path);
    sweep.addSink(csv);
    SweepOptions opt;
    opt.threads = 4;
    sweep.run(opt);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("index,workload,mode,predictor,scheme", 0),
              0u)
        << line;
    EXPECT_NE(line.find("accuracy"), std::string::npos);
    size_t expected = 0, rows = 0;
    while (std::getline(in, line)) {
        // Rows come out in grid order whatever order jobs finished.
        EXPECT_EQ(line.substr(0, line.find(',')),
                  std::to_string(expected));
        ++expected;
        ++rows;
    }
    EXPECT_EQ(rows, 24u);
    std::remove(path.c_str());
}

TEST(SinkTest, TableSinkRendersOneRowPerJob)
{
    SweepSpec spec = smallGrid();
    spec.workloads = {"micro.stride"};
    spec.seeds = {1};
    SweepRunner sweep(spec);
    std::ostringstream os;
    TableSink table(os, "unit sweep");
    sweep.addSink(table);
    sweep.run(SweepOptions());
    std::string text = os.str();
    EXPECT_NE(text.find("unit sweep"), std::string::npos);
    EXPECT_NE(text.find("accuracy"), std::string::npos);
    EXPECT_NE(text.find("micro.stride/gdiff[o=4,s=1]"),
              std::string::npos)
        << text;
}

TEST(SinkTest, JsonlAppendModeAccumulates)
{
    std::string path = tempPath("append.jsonl");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.result.metrics = {{"accuracy", 0.5}};
    {
        JsonlSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    {
        JsonlSink sink(path, /*append=*/true);
        rec.index = 1;
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 2u);
    std::remove(path.c_str());
}

// --------------------------------------------- sink robustness
// Labels and metric names can contain CSV/JSON metacharacters (a
// workload named "a,b" or a metric with a quote); the sinks must
// stay parseable.

TEST(SinkRobustnessTest, JsonlEscapesQuotesBackslashesAndControls)
{
    std::string path = tempPath("escape.jsonl");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.spec.workload = "we\"ird\\name\nwith,stuff\ttab";
    rec.result.metrics = {{"acc\"ur,acy", 0.5}};
    {
        JsonlSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    std::string line, extra;
    ASSERT_TRUE(std::getline(in, line));
    // The embedded newline must be escaped: exactly one physical
    // line in the file.
    EXPECT_FALSE(std::getline(in, extra)) << extra;
    EXPECT_NE(line.find("we\\\"ird\\\\name\\nwith,stuff\\ttab"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("acc\\\"ur,acy"), std::string::npos) << line;
    std::remove(path.c_str());
}

TEST(SinkRobustnessTest, CsvQuotesSeparatorsQuotesAndNewlines)
{
    std::string path = tempPath("quoting.csv");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.spec.mode = JobMode::Profile;
    rec.spec.workload = "evil \"quoted\",name";
    rec.spec.predictor = "str,ide";
    rec.result.metrics = {{"metric,with\"meta", 1.0}};
    {
        CsvSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    // RFC 4180: fields wrapped in quotes, inner quotes doubled.
    EXPECT_NE(text.find("\"evil \"\"quoted\"\",name\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"str,ide\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"metric,with\"\"meta\""),
              std::string::npos)
        << text;
    std::remove(path.c_str());
}

TEST(SinkRobustnessTest, CsvLeavesPlainFieldsUnquoted)
{
    std::string path = tempPath("plain.csv");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.spec.mode = JobMode::Profile;
    rec.spec.workload = "mcf";
    rec.spec.predictor = "gdiff";
    rec.result.metrics = {{"accuracy", 0.25}};
    {
        CsvSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_EQ(header.find('"'), std::string::npos) << header;
    EXPECT_EQ(row.find('"'), std::string::npos) << row;
    EXPECT_EQ(row.rfind("0,mcf,profile,gdiff,", 0), 0u) << row;
    std::remove(path.c_str());
}

TEST(SinkRobustnessTest, TableCsvQuotesLabelsAndCells)
{
    stats::Table t("robustness", "row,label");
    t.addColumn("col\"A");
    t.addColumn("plain");
    t.beginRow("r1,x");
    t.cell("va\nl");
    t.cell("ok");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "\"row,label\",\"col\"\"A\",plain\n"
                        "\"r1,x\",\"va\nl\",ok\n");
}

// ----------------------------------------------------------- factory

TEST(FactoryTest, EveryRegisteredNameConstructs)
{
    for (const auto &name : predictorNames()) {
        auto p = makePredictor(name, 8, 1024);
        ASSERT_NE(p, nullptr) << name;
    }
    for (const auto &name : schemeNames()) {
        auto s = makeScheme(name, 16, 1024);
        ASSERT_NE(s, nullptr) << name;
    }
}

TEST(FactoryDeath, UnknownNamesAreFatal)
{
    EXPECT_EXIT(makePredictor("psychic", 8, 0),
                ::testing::ExitedWithCode(1), "unknown predictor");
    EXPECT_EXIT(makeScheme("psychic", 8, 0),
                ::testing::ExitedWithCode(1), "unknown scheme");
}

} // namespace
} // namespace runner
} // namespace gdiff
