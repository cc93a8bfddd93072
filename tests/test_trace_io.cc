/**
 * @file
 * Trace-file round-trip tests: records survive write/read unchanged,
 * replayed traces drive the same predictor results as live execution,
 * and malformed files are rejected.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/gdiff.hh"
#include "sim/profile.hh"
#include "trace_records.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/gdiff_trace_" + tag +
           ".bin";
}

TEST(TraceIo, RoundTripPreservesRecords)
{
    std::string path = tempPath("roundtrip");
    Workload w = makeWorkload("parser", 1);
    auto exec = w.makeExecutor();

    std::vector<TraceRecord> original;
    {
        TraceWriter writer(path);
        TraceRecord r;
        while (original.size() < 5000 && exec->next(r)) {
            writer.append(r);
            original.push_back(r);
        }
        writer.close();
        EXPECT_EQ(writer.written(), original.size());
    }

    TraceFileSource src(path);
    EXPECT_EQ(src.totalRecords(), original.size());
    std::vector<TraceRecord> replayed = drainRecords(src);
    ASSERT_EQ(replayed.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        const TraceRecord &r = replayed[i];
        const TraceRecord &o = original[i];
        EXPECT_EQ(r.seq, o.seq);
        EXPECT_EQ(r.pc, o.pc);
        EXPECT_EQ(r.nextPc, o.nextPc);
        EXPECT_EQ(r.value, o.value);
        EXPECT_EQ(r.effAddr, o.effAddr);
        EXPECT_EQ(r.taken, o.taken);
        EXPECT_EQ(r.inst.op, o.inst.op);
        EXPECT_EQ(r.inst.rd, o.inst.rd);
        EXPECT_EQ(r.inst.rs1, o.inst.rs1);
        EXPECT_EQ(r.inst.rs2, o.inst.rs2);
        EXPECT_EQ(r.inst.imm, o.inst.imm);
        EXPECT_EQ(r.inst.target, o.inst.target);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayMatchesLiveExecution)
{
    std::string path = tempPath("replay");
    {
        Workload w = makeWorkload("mcf", 1);
        auto exec = w.makeExecutor();
        TraceWriter writer(path);
        TraceRecord r;
        for (int i = 0; i < 60'000 && exec->next(r); ++i)
            writer.append(r);
    }

    auto run = [](TraceSource &src) {
        core::GDiffConfig cfg;
        cfg.order = 8;
        cfg.tableEntries = 0;
        core::GDiffPredictor gd(cfg);
        sim::ProfileConfig pcfg;
        pcfg.maxInstructions = 50'000;
        pcfg.warmupInstructions = 5'000;
        sim::ValueProfileRunner runner(pcfg);
        runner.addPredictor(gd);
        runner.run(src);
        return runner.results()[0].accuracyAll.value();
    };

    Workload w = makeWorkload("mcf", 1);
    auto live = w.makeExecutor();
    double live_acc = run(*live);

    TraceFileSource replay(path);
    double replay_acc = run(replay);

    EXPECT_DOUBLE_EQ(live_acc, replay_acc);
    std::remove(path.c_str());
}

TEST(TraceIo, RewindReplaysFromTheTop)
{
    std::string path = tempPath("rewind");
    {
        Workload w = makeWorkload("bzip2", 1);
        auto exec = w.makeExecutor();
        TraceWriter writer(path);
        TraceRecord r;
        for (int i = 0; i < 100 && exec->next(r); ++i)
            writer.append(r);
    }
    TraceFileSource src(path);
    std::vector<TraceRecord> first = drainRecords(src);
    ASSERT_EQ(first.size(), 100u);
    src.rewind();
    std::vector<TraceRecord> again = drainRecords(src);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(again[i].seq, first[i].seq);
        EXPECT_EQ(again[i].pc, first[i].pc);
        EXPECT_EQ(again[i].value, first[i].value);
    }
    std::remove(path.c_str());
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceFileSource src("/nonexistent/nope.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

// The open path's status split: the persistent disk cache treats
// IoError as a miss and quarantines everything else, so a missing
// file must not look like a damaged one.
TEST(TraceIo, OpenSeparatesMissingFromTruncated)
{
    TraceFileReader reader;
    EXPECT_EQ(reader.open("/nonexistent/nope.gdtr").status,
              TraceIoStatus::IoError);

    std::string path = tempPath("short");
    const uint8_t header[16] = {'G', 'D', 'T', 'R', 3};
    for (size_t len : {size_t(0), size_t(1), size_t(15)}) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(header, 1, len, f), len);
        std::fclose(f);
        TraceIoResult res = reader.open(path);
        EXPECT_EQ(res.status, TraceIoStatus::Truncated)
            << len << " bytes: " << res.message;
        // A failed open leaves the reader closed.
        auto chunk = std::make_unique<TraceChunk>();
        EXPECT_EQ(reader.read(*chunk).status, TraceIoStatus::IoError);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------- version matrix
//
// Writers emit v2 or v3; readers are simulated at both eras via the
// maxVersion parameter. Every cell of the matrix must either accept
// transparently or reject with an error naming both the found and
// the supported versions.

std::string
writeSmallTrace(const char *tag, uint32_t version)
{
    std::string path = tempPath(tag);
    Workload w = makeWorkload("bzip2", 1);
    auto exec = w.makeExecutor();
    TraceWriter writer(path, version);
    TraceRecord r;
    for (int i = 0; i < 500 && exec->next(r); ++i)
        writer.append(r);
    writer.close();
    return path;
}

TEST(TraceIoVersionMatrix, V2ReaderRejectsV3FileNamingBothVersions)
{
    std::string path = writeSmallTrace("v2rdr_v3file", traceVersionV3);
    TraceFileReader reader;
    TraceIoResult res = reader.open(path, traceVersionV2);
    EXPECT_EQ(res.status, TraceIoStatus::BadVersion);
    // The error must name what was found and what would have worked.
    EXPECT_NE(res.message.find("version 3"), std::string::npos)
        << res.message;
    EXPECT_NE(res.message.find("2"), std::string::npos) << res.message;
    std::remove(path.c_str());
}

TEST(TraceIoVersionMatrix, V3ReaderAcceptsV2FileTransparently)
{
    std::string v2 = writeSmallTrace("matrix_v2", traceVersionV2);
    std::string v3 = writeSmallTrace("matrix_v3", traceVersionV3);

    auto drain = [](const std::string &path) {
        TraceFileReader reader;
        TraceIoResult res = reader.open(path);
        EXPECT_TRUE(res.ok()) << res.message;
        std::vector<TraceRecord> records;
        auto chunk = std::make_unique<TraceChunk>();
        while ((res = reader.read(*chunk)).ok())
            for (uint32_t i = 0; i < chunk->size; ++i)
                records.push_back(chunk->record(i));
        EXPECT_TRUE(res.end()) << res.message;
        return records;
    };

    auto a = drain(v2);
    auto b = drain(v3);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].effAddr, b[i].effAddr);
    }
    std::remove(v2.c_str());
    std::remove(v3.c_str());
}

TEST(TraceIoVersionMatrix, EachEraReaderAcceptsItsOwnFormat)
{
    for (uint32_t ver : {traceVersionV2, traceVersionV3}) {
        std::string path = writeSmallTrace("matrix_own", ver);
        TraceFileReader reader;
        TraceIoResult res = reader.open(path, ver);
        EXPECT_TRUE(res.ok()) << "v" << ver << ": " << res.message;
        EXPECT_EQ(reader.version(), ver);
        std::remove(path.c_str());
    }
}

TEST(TraceIoDeath, WrongVersionIsFatal)
{
    std::string path = tempPath("badversion");
    {
        // A structurally valid header whose version field is from
        // the future: magic "GDTR", version 999, zero records.
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const uint32_t magic = 0x52544447; // "GDTR"
        const uint32_t version = 999;
        const uint64_t count = 0;
        std::fwrite(&magic, sizeof(magic), 1, f);
        std::fwrite(&version, sizeof(version), 1, f);
        std::fwrite(&count, sizeof(count), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceFileSource src(path),
                ::testing::ExitedWithCode(1), "version 999");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TruncatedHeaderIsFatal)
{
    std::string path = tempPath("shortheader");
    {
        // Only half a header: valid magic, then EOF.
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const uint32_t magic = 0x52544447;
        std::fwrite(&magic, sizeof(magic), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceFileSource src(path),
                ::testing::ExitedWithCode(1), "truncated");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, BadMagicIsFatal)
{
    std::string path = tempPath("badmagic");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[32] = "this is not a trace file";
        std::fwrite(junk, sizeof(junk), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceFileSource src(path),
                ::testing::ExitedWithCode(1), "bad magic");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TruncatedFileIsFatal)
{
    std::string path = tempPath("trunc");
    {
        TraceWriter writer(path);
        Workload w = makeWorkload("bzip2", 1);
        auto exec = w.makeExecutor();
        TraceRecord r;
        for (int i = 0; i < 10 && exec->next(r); ++i)
            writer.append(r);
        writer.close();
    }
    // Chop the last record in half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(0, truncate(path.c_str(), size - 32));
    }
    TraceFileSource src(path);
    EXPECT_EXIT(drainRecords(src), ::testing::ExitedWithCode(1),
                "truncated");
    std::remove(path.c_str());
}

} // namespace
} // namespace workload
} // namespace gdiff
