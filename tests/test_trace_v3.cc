/**
 * @file
 * Trace format v3 + persistent disk-cache battery.
 *
 * The v3 promise is "bit-identical replay, whatever happens": this
 * file polices it from four directions —
 *
 *  - round-trip property grid: kernel x seed x record-count
 *    (including empty, single-record, and non-chunk-multiple
 *    lengths) through both formats;
 *  - corruption fuzz: seeded byte flips and truncations at every
 *    region of a v3 file (header, block directory, varint payload,
 *    footer) must yield clean typed errors — never a crash, an OOM,
 *    or a silently wrong stream (run under ASan/UBSan in CI);
 *  - persistent disk cache: corrupt entries are quarantined and
 *    regenerated; a failed store leaves the process running;
 *    eviction honours the byte cap; a *different
 *    process* (fork) can populate the cache and this one replays it
 *    bit-identically, including under concurrent writers racing on
 *    the same entry;
 *  - equivalence: v2 and v3 replays drive identical predictor
 *    results, and sweeps through the disk tier are bit-identical to
 *    uncached runs at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/gdiff.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "sim/profile.hh"
#include "trace_records.hh"
#include "util/varint.hh"
#include "workload/trace_cache.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {
namespace {

// ------------------------------------------------------ helpers

std::string
tempRoot(const char *tag)
{
    return std::string(::testing::TempDir()) + "/gdiff_v3_" + tag +
           "_" + std::to_string(::getpid());
}

/** rm -rf for the small flat/1-deep trees these tests create. */
void
removeTree(const std::string &root)
{
    DIR *d = ::opendir(root.c_str());
    if (d) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name == "." || name == "..")
                continue;
            std::string path = root + "/" + name;
            struct stat st;
            if (::lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeTree(path);
            else
                ::unlink(path.c_str());
        }
        ::closedir(d);
    }
    ::rmdir(root.c_str());
}

/** Materialize @p kernel and flatten its first records to a vector. */
std::vector<TraceRecord>
generateRecords(const std::string &kernel, uint64_t seed, uint64_t n)
{
    auto trace = MaterializedTrace::generate(kernel, seed, n);
    std::vector<TraceRecord> out;
    out.reserve(trace->records());
    for (const auto &chunk : trace->chunks())
        for (uint32_t i = 0; i < chunk->size; ++i)
            out.push_back(chunk->record(i));
    return out;
}

void
writeRecords(const std::string &path,
             const std::vector<TraceRecord> &records, uint32_t version)
{
    TraceWriter writer(path, version);
    for (const auto &r : records)
        writer.append(r);
    writer.close();
}

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (f) {
        std::fseek(f, 0, SEEK_END);
        bytes.resize(static_cast<size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    return bytes;
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!bytes.empty()) { // data() of an empty vector may be null
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

/**
 * Decode the trace file at @p path to the end.
 * @return the terminal status; decoded records in @p out (valid only
 * when the stream ended cleanly).
 */
TraceIoResult
decodeFile(const std::string &path,
           std::vector<TraceRecord> *out = nullptr,
           uint32_t maxVersion = traceVersionMax)
{
    TraceFileReader reader;
    TraceIoResult res = reader.open(path, maxVersion);
    if (res.failed())
        return res;
    auto chunk = std::make_unique<TraceChunk>();
    for (;;) {
        res = reader.read(*chunk);
        if (!res.ok())
            return res;
        if (out)
            for (uint32_t i = 0; i < chunk->size; ++i)
                out->push_back(chunk->record(i));
    }
}

/** Write @p image to a scratch file and decode it (see decodeFile). */
TraceIoResult
decodeImage(const std::vector<uint8_t> &image,
            std::vector<TraceRecord> *out = nullptr)
{
    std::string path = tempRoot("image") + ".gdtr";
    spit(path, image);
    TraceIoResult res = decodeFile(path, out);
    std::remove(path.c_str());
    return res;
}

void
expectSameRecords(const std::vector<TraceRecord> &got,
                  const std::vector<TraceRecord> &want,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        const TraceRecord &g = got[i], &w = want[i];
        bool same = g.seq == w.seq && g.pc == w.pc &&
                    g.nextPc == w.nextPc && g.value == w.value &&
                    g.effAddr == w.effAddr && g.taken == w.taken &&
                    g.inst.op == w.inst.op && g.inst.rd == w.inst.rd &&
                    g.inst.rs1 == w.inst.rs1 &&
                    g.inst.rs2 == w.inst.rs2 &&
                    g.inst.imm == w.inst.imm &&
                    g.inst.target == w.inst.target;
        ASSERT_TRUE(same) << what << ": record " << i << " differs";
    }
}

// ------------------------------------------- round-trip property grid

TEST(TraceV3RoundTrip, KernelSeedLengthGrid)
{
    // Record counts probe every block-formation edge: empty file,
    // single record, one-short/exact/one-past a chunk boundary, and
    // a multi-block stream with a partial tail.
    const uint64_t counts[] = {0, 1, 4095, 4096, 4097, 10000};
    const char *kernels[] = {"micro.stride", "micro.periodic",
                             "micro.affine", "micro.random"};

    std::string path = tempRoot("grid") + ".gdtr";
    for (const char *kernel : kernels) {
        for (uint64_t seed : {1ull, 7ull}) {
            auto base = generateRecords(kernel, seed, 10000);
            ASSERT_EQ(base.size(), 10000u);
            for (uint64_t count : counts) {
                std::vector<TraceRecord> want(base.begin(),
                                              base.begin() + count);
                std::string what = std::string(kernel) + " seed " +
                                   std::to_string(seed) + " n " +
                                   std::to_string(count);
                for (uint32_t ver :
                     {traceVersionV2, traceVersionV3}) {
                    writeRecords(path, want, ver);
                    std::vector<TraceRecord> got;
                    TraceIoResult res = decodeFile(path, &got);
                    EXPECT_TRUE(res.end())
                        << what << " v" << ver << ": " << res.message;
                    expectSameRecords(
                        got, want,
                        what + " v" + std::to_string(ver));
                }
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceV3RoundTrip, ChunkAndRecordAppendProduceIdenticalBytes)
{
    // The two writer entry points must form identical blocks (and
    // therefore identical digests): per-record appends batch into
    // the same full-chunks-plus-tail structure a chunked source has.
    auto trace = MaterializedTrace::generate("micro.periodic", 3, 9000);
    std::string a = tempRoot("bychunk") + ".gdtr";
    std::string b = tempRoot("byrecord") + ".gdtr";
    {
        TraceWriter writer(a);
        for (const auto &chunk : trace->chunks())
            writer.append(*chunk);
        writer.close();
    }
    {
        TraceWriter writer(b);
        for (const auto &chunk : trace->chunks())
            for (uint32_t i = 0; i < chunk->size; ++i)
                writer.append(chunk->record(i));
        writer.close();
    }
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ------------------------------------------------- corruption fuzz

/**
 * Flip one byte and decode to the end. The contract: either a clean
 * typed error, or — if a flip ever slipped past every digest — a
 * stream still identical to the original. Anything else (crash,
 * hang, silently different records) is a reader bug.
 */
void
expectFlipDetected(std::vector<uint8_t> image, size_t offset,
                   uint8_t mask,
                   const std::vector<TraceRecord> &original)
{
    image[offset] ^= mask;
    std::vector<TraceRecord> got;
    TraceIoResult res = decodeImage(image, &got);
    if (res.end())
        expectSameRecords(got, original,
                          "flip at " + std::to_string(offset));
    else
        EXPECT_TRUE(res.failed());
}

/** Flip bytes over every region of a v3 @p image of @p original. */
void
flipBattery(const std::vector<uint8_t> &image,
            const std::vector<TraceRecord> &original)
{
    ASSERT_GT(image.size(), 96u);
    // Deterministic LCG picks the flip mask so reruns are identical.
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto nextMask = [&rng]() {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        uint8_t m = static_cast<uint8_t>(rng >> 33);
        return m ? m : uint8_t(1);
    };

    // Dense coverage of the header and the first block's directory
    // entry (record count, payload length, stored digest)...
    for (size_t off = 0; off < 64; ++off)
        expectFlipDetected(image, off, nextMask(), original);
    // ...strided coverage of the varint payloads and later block
    // directories...
    for (size_t off = 64; off < image.size(); off += 7)
        expectFlipDetected(image, off, nextMask(), original);
    // ...and dense coverage of the footer digest.
    for (size_t off = image.size() - 32; off < image.size(); ++off)
        expectFlipDetected(image, off, nextMask(), original);
}

TEST(TraceV3Corruption, ByteFlipsYieldTypedErrors)
{
    // micro.affine mixes compressible and dense columns, so the file
    // exercises raw, delta, RLE, and transposed codecs at once.
    auto original = generateRecords("micro.affine", 2, 10000);
    std::string path = tempRoot("flips") + ".gdtr";
    writeRecords(path, original, traceVersionV3);
    std::vector<uint8_t> image = slurp(path);
    std::remove(path.c_str());
    ASSERT_GT(image.size(), 256u);
    flipBattery(image, original);
}

TEST(TraceV3Corruption, FileReaderSurvivesFlipsToo)
{
    auto original = generateRecords("micro.periodic", 2, 6000);
    std::string path = tempRoot("fileflips") + ".gdtr";
    writeRecords(path, original, traceVersionV3);
    std::vector<uint8_t> image = slurp(path);

    for (size_t off = 0; off < image.size(); off += 97) {
        std::vector<uint8_t> bad = image;
        bad[off] ^= 0x40;
        spit(path, bad);

        std::vector<TraceRecord> got;
        TraceIoResult res = decodeFile(path, &got);
        if (res.end())
            expectSameRecords(got, original,
                              "file flip at " + std::to_string(off));
        else
            EXPECT_TRUE(res.failed());
    }
    std::remove(path.c_str());
}

/** Every cut of a v3 @p image must fail to read cleanly. */
void
truncationBattery(const std::vector<uint8_t> &image)
{
    auto check = [&](size_t len) {
        std::vector<uint8_t> cut(image.begin(), image.begin() + len);
        std::vector<TraceRecord> got;
        TraceIoResult res = decodeImage(cut, &got);
        EXPECT_TRUE(res.failed())
            << "truncation to " << len << " bytes read cleanly";
    };
    // Every prefix of the header and first block directory, then a
    // stride through the payloads, then every cut near the footer.
    for (size_t len = 0; len < 80 && len < image.size(); ++len)
        check(len);
    for (size_t len = 80; len + 80 < image.size(); len += 11)
        check(len);
    for (size_t len = image.size() - 80; len < image.size(); ++len)
        check(len);
}

TEST(TraceV3Corruption, TruncationsYieldTypedErrors)
{
    auto original = generateRecords("micro.affine", 4, 8000);
    std::string path = tempRoot("trunc") + ".gdtr";
    writeRecords(path, original, traceVersionV3);
    std::vector<uint8_t> image = slurp(path);
    std::remove(path.c_str());
    truncationBattery(image);
}

TEST(TraceV3Corruption, HostileVarintsAreRejected)
{
    // Overlong encoding: ten continuation bytes never terminate a
    // valid 64-bit varint.
    const uint8_t overlong[10] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0xff, 0xff, 0xff};
    uint64_t v = 0;
    EXPECT_EQ(codec::getVarint(overlong, overlong + 10, &v), 0u);

    // Truncated varint: continuation bit set at end of input.
    const uint8_t cut[1] = {0x80};
    EXPECT_EQ(codec::getVarint(cut, cut + 1, &v), 0u);

    // A run length claiming more elements than the column holds.
    std::vector<uint8_t> enc;
    codec::putVarint(enc, codec::zigzagEncode(1)); // delta 1
    codec::putVarint(enc, 1000);                   // run 1000
    uint64_t out[8];
    EXPECT_FALSE(
        codec::decodeDeltaRle(enc.data(), enc.size(), out, 8, 1));

    // Trailing bytes after the declared element count.
    std::vector<uint8_t> exact;
    codec::putVarint(exact, codec::zigzagEncode(5));
    codec::putVarint(exact, 4);
    exact.push_back(0x00);
    EXPECT_FALSE(
        codec::decodeDeltaRle(exact.data(), exact.size(), out, 4, 1));
}

// ------------------------------------------------- codec properties

/** Fuzzed 64-bit columns of the shapes a trace column takes. */
std::vector<uint64_t>
fuzzWideColumn(uint32_t n, unsigned shape, uint64_t &rng)
{
    auto next = [&rng]() {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 11;
    };
    std::vector<uint64_t> v(n);
    uint64_t x = next();
    for (uint32_t i = 0; i < n; ++i) {
        switch (shape) {
        case 0: v[i] = next() << (next() % 40); break;  // noise
        case 1: v[i] = x + 8 * i; break;                 // one stride
        case 2: v[i] = x + 16 * (i / 5) + 1000 * (i % 5); break; // phased
        case 3: v[i] = (next() % 4) ? x : next(); x = v[i]; break; // runs
        default: v[i] = ~uint64_t(0) - 3 * i; break;      // wraps
        }
    }
    return v;
}

TEST(TraceV3Codec, SizesMatchEncodingsAndStridedDecodesRoundTrip)
{
    // n is never a multiple of L > 1, so the last phase is short;
    // 20011 makes one stride run longer than 2^14 elements.
    uint64_t rng = 42;
    for (uint32_t n : {1u, 13u, 97u, 4093u, 20011u}) {
        for (uint32_t L : {1u, 2u, 7u, 48u, n}) {
            if (L > n)
                continue;
            for (unsigned shape = 0; shape < 5; ++shape) {
                std::string what = "n " + std::to_string(n) + " L " +
                                   std::to_string(L) + " shape " +
                                   std::to_string(shape);
                auto v = fuzzWideColumn(n, shape, rng);
                codec::DeltaSizes sizes =
                    codec::deltaSizes(v.data(), n, L);
                std::vector<uint64_t> got(n);

                std::vector<uint8_t> enc;
                codec::encodeDeltaVarint(v.data(), n, L, enc);
                EXPECT_EQ(enc.size(), sizes.varint) << what;
                ASSERT_TRUE(codec::decodeDeltaVarint(
                    enc.data(), enc.size(), got.data(), n, L))
                    << what;
                EXPECT_EQ(got, v) << "deltaVarint " << what;

                enc.clear();
                codec::encodeDeltaRle(v.data(), n, L, enc);
                EXPECT_EQ(enc.size(), sizes.rle) << what;
                std::fill(got.begin(), got.end(), 0);
                ASSERT_TRUE(codec::decodeDeltaRle(enc.data(), enc.size(),
                                                  got.data(), n, L))
                    << what;
                EXPECT_EQ(got, v) << "deltaRle " << what;

                std::vector<uint8_t> bytes(n);
                for (uint32_t i = 0; i < n; ++i)
                    bytes[i] = static_cast<uint8_t>(v[i] % 3);
                enc.clear();
                codec::encodeByteRle(bytes.data(), n, L, enc);
                EXPECT_EQ(enc.size(),
                          codec::byteRleSize(bytes.data(), n, L))
                    << what;
                std::vector<uint8_t> gotBytes(n);
                ASSERT_TRUE(codec::decodeByteRle(enc.data(), enc.size(),
                                                 gotBytes.data(), n, L))
                    << what;
                EXPECT_EQ(gotBytes, bytes) << "byteRle " << what;
            }
        }
    }
}

/** A trace chunk's 12 on-disk columns, in file order. */
struct ChunkColumns
{
    std::vector<std::vector<uint8_t>> bytes;  // op rd rs1 rs2 flags
    std::vector<std::vector<uint64_t>> wide;  // target .. effAddr
};

ChunkColumns
columnsOfChunk(const TraceChunk &c)
{
    ChunkColumns cols;
    cols.bytes.assign(5, std::vector<uint8_t>(c.size));
    cols.wide.assign(7, std::vector<uint64_t>(c.size));
    for (uint32_t i = 0; i < c.size; ++i) {
        const isa::Instruction &in = c.inst[i];
        const uint8_t b[5] = {static_cast<uint8_t>(in.op), in.rd, in.rs1,
                              in.rs2, c.flags[i]};
        const uint64_t w[7] = {in.target,     static_cast<uint64_t>(in.imm),
                               c.seq[i],      c.pc[i],
                               c.nextPc[i],   static_cast<uint64_t>(c.value[i]),
                               c.effAddr[i]};
        for (unsigned k = 0; k < 5; ++k)
            cols.bytes[k][i] = b[k];
        for (unsigned k = 0; k < 7; ++k)
            cols.wide[k][i] = w[k];
    }
    return cols;
}

uint32_t
le32(const uint8_t *p)
{
    return p[0] | p[1] << 8 | p[2] << 16 | uint32_t(p[3]) << 24;
}

TEST(TraceV3Codec, EachColumnIsItsSmallestCandidate)
{
    // The writer must emit, per column, the smallest of raw and the
    // plain and phase-transposed codecs at {1, block period}: that is
    // what keeps every column within its raw size (and the reader's
    // payload bound sound). All transposed columns of a block share
    // the one block period.
    for (const char *kernel :
         {"mcf", "perl", "gcc", "micro.periodic", "micro.affine"}) {
        auto trace = MaterializedTrace::generate(kernel, 1, 3 * 4096 + 77);
        std::string path = tempRoot("smallest") + ".gdtr";
        {
            TraceWriter writer(path);
            for (const auto &chunk : trace->chunks())
                writer.append(*chunk);
            writer.close();
        }
        std::vector<uint8_t> image = slurp(path);
        std::remove(path.c_str());

        const uint8_t *p = image.data() + 16; // file header
        for (const auto &chunk : trace->chunks()) {
            const uint32_t n = chunk->size;
            ASSERT_EQ(le32(p), n) << kernel;
            p += 16; // block header
            ChunkColumns cols = columnsOfChunk(*chunk);
            const uint32_t L = detectBytePeriod(cols.bytes[0].data(), n);
            const size_t periodBytes = codec::varintBytes(L);
            for (unsigned c = 0; c < 12; ++c) {
                const uint8_t tag = p[0];
                const uint32_t len = le32(p + 1);
                std::vector<size_t> cands;
                if (c < 5) {
                    const uint8_t *v = cols.bytes[c].data();
                    cands = {n, codec::byteRleSize(v, n, 1)};
                    if (L > 1)
                        cands.push_back(periodBytes +
                                        codec::byteRleSize(v, n, L));
                } else {
                    const uint64_t *v = cols.wide[c - 5].data();
                    codec::DeltaSizes plain = codec::deltaSizes(v, n, 1);
                    cands = {(c == 5 ? 4u : 8u) * n, plain.varint,
                             plain.rle};
                    if (L > 1) {
                        codec::DeltaSizes phased =
                            codec::deltaSizes(v, n, L);
                        cands.push_back(periodBytes + phased.varint);
                        cands.push_back(periodBytes + phased.rle);
                    }
                }
                std::string what = std::string(kernel) + " column " +
                                   std::to_string(c) + " tag " +
                                   std::to_string(tag);
                EXPECT_EQ(len, *std::min_element(cands.begin(),
                                                 cands.end()))
                    << what;
                EXPECT_LE(len, cands[0]) << what << " exceeds raw";
                if (tag >= 4) { // transposed: L leads the payload
                    uint64_t got = 0;
                    ASSERT_GT(codec::getVarint(p + 5, p + 5 + len, &got),
                              0u);
                    EXPECT_EQ(got, L) << what;
                }
                p += 5 + len;
            }
        }
    }
}

/** Append @p v little-endian in @p bytes bytes. */
void
putLE(std::vector<uint8_t> &out, uint64_t v, unsigned bytes)
{
    for (unsigned b = 0; b < bytes; ++b)
        out.push_back(static_cast<uint8_t>(v >> (8 * b)));
}

/**
 * Hand-encode one column with codec @p tag at period @p L (used by
 * the transposed tags 4-6), independently of the writer's encoders:
 * elements are visited phase-major and delta/run state carries
 * across phases.
 */
std::vector<uint8_t>
handEncode(uint8_t tag, const std::vector<uint64_t> &v, unsigned width,
           uint32_t L)
{
    std::vector<uint8_t> out;
    if (tag == 0) {
        for (uint64_t x : v)
            putLE(out, x, width);
        return out;
    }
    std::vector<uint64_t> order;
    if (tag >= 4) {
        codec::putVarint(out, L);
        for (uint32_t p = 0; p < L; ++p)
            for (size_t i = p; i < v.size(); i += L)
                order.push_back(v[i]);
    } else {
        order = v;
    }
    // symbols: bytes for the byte codecs, zigzag deltas otherwise
    const bool bytes = tag == 3 || tag == 5;
    std::vector<uint64_t> syms;
    uint64_t prev = 0;
    for (uint64_t x : order) {
        syms.push_back(bytes ? x
                             : codec::zigzagEncode(
                                   static_cast<int64_t>(x - prev)));
        prev = x;
    }
    if (tag == 1 || tag == 6) { // deltaVarint(T)
        for (uint64_t z : syms)
            codec::putVarint(out, z);
        return out;
    }
    for (size_t i = 0; i < syms.size();) { // run-length codecs
        size_t run = 1;
        while (i + run < syms.size() && syms[i + run] == syms[i])
            ++run;
        if (bytes)
            out.push_back(static_cast<uint8_t>(syms[i]));
        else
            codec::putVarint(out, syms[i]);
        codec::putVarint(out, run);
        i += run;
    }
    return out;
}

TEST(TraceV3Compat, HandBuiltBlockPerTagDecodes)
{
    // One block per codec tag 0-6, bytes built by hand: files written
    // by any v3 writer keep decoding even if the current writer stops
    // choosing a tag.
    const uint32_t n = 41; // not a multiple of the period
    const uint32_t L = 3;
    std::vector<TraceRecord> want;
    std::vector<uint8_t> image;
    putLE(image, 0x52544447, 4); // "GDTR"
    putLE(image, traceVersionV3, 4);
    putLE(image, 7 * n, 8);
    uint64_t fileDigest = codec::fnvOffsetBasis;

    for (uint8_t tag = 0; tag <= 6; ++tag) {
        std::vector<TraceRecord> block(n);
        for (uint32_t i = 0; i < n; ++i) {
            TraceRecord &r = block[i];
            const uint32_t k = tag * n + i;
            r.inst.op = static_cast<isa::Opcode>(1 + k % L);
            r.inst.rd = static_cast<uint8_t>(k % L == 0 ? 5 : 6);
            r.inst.rs1 = static_cast<uint8_t>(i / 10);
            r.inst.rs2 = static_cast<uint8_t>(7);
            r.inst.target = 0x400 + 4 * (k % L);
            r.inst.imm = -static_cast<int64_t>(k % L) * 9;
            r.seq = k;
            r.pc = 0x1000 + 4 * (k % L);
            r.nextPc = r.pc + 4;
            r.value = static_cast<int64_t>(k * k) - 300;
            r.effAddr = 0x8000 + 64 * k + (k % L);
            r.taken = k % 5 == 0;
        }
        auto chunk = std::make_unique<TraceChunk>();
        for (const auto &r : block)
            chunk->push(r);
        // read the flags and fields back as the chunk stores them
        for (uint32_t i = 0; i < n; ++i)
            want.push_back(chunk->record(i));
        ChunkColumns cols = columnsOfChunk(*chunk);

        std::vector<uint8_t> payload;
        for (unsigned c = 0; c < 12; ++c) {
            const bool u8 = c < 5;
            std::vector<uint64_t> v(n);
            for (uint32_t i = 0; i < n; ++i)
                v[i] = u8 ? cols.bytes[c][i] : cols.wide[c - 5][i];
            const unsigned width = u8 ? 1 : c == 5 ? 4 : 8;
            const bool byteTag = tag == 3 || tag == 5;
            const uint8_t use = tag == 0 || u8 == byteTag ? tag : 0;
            std::vector<uint8_t> col = handEncode(use, v, width, L);
            payload.push_back(use);
            putLE(payload, col.size(), 4);
            payload.insert(payload.end(), col.begin(), col.end());
        }
        std::vector<uint8_t> header;
        putLE(header, n, 4);
        putLE(header, payload.size(), 4);
        putLE(header, codec::fnv1a(payload.data(), payload.size()), 8);
        fileDigest = codec::fnv1a(header.data(), header.size(), fileDigest);
        fileDigest =
            codec::fnv1a(payload.data(), payload.size(), fileDigest);
        image.insert(image.end(), header.begin(), header.end());
        image.insert(image.end(), payload.begin(), payload.end());
    }
    putLE(image, 0x33544447, 4); // "GDT3"
    putLE(image, 0, 4);
    putLE(image, fileDigest, 8);

    std::vector<TraceRecord> got;
    TraceIoResult res = decodeImage(image, &got);
    ASSERT_TRUE(res.end()) << res.message;
    expectSameRecords(got, want, "hand-built blocks");
    flipBattery(image, want);
    truncationBattery(image);
}

// ------------------------------------------------ persistent tier

TEST(DiskTraceCache, StoreThenLoadRoundTrips)
{
    std::string root = tempRoot("storeload");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    DiskTraceCache disk(cfg);

    auto trace = MaterializedTrace::generate("micro.stride", 1, 5000);
    EXPECT_EQ(disk.load("micro.stride", 1, 5000), nullptr);
    disk.store("micro.stride", 1, 5000, *trace);
    auto loaded = disk.load("micro.stride", 1, 5000);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->records(), trace->records());
    ASSERT_EQ(loaded->chunks().size(), trace->chunks().size());
    for (size_t c = 0; c < trace->chunks().size(); ++c) {
        const TraceChunk &a = *trace->chunks()[c];
        const TraceChunk &b = *loaded->chunks()[c];
        ASSERT_EQ(a.size, b.size);
        for (uint32_t i = 0; i < a.size; ++i) {
            EXPECT_EQ(a.value[i], b.value[i]);
            EXPECT_EQ(a.pc[i], b.pc[i]);
            EXPECT_EQ(a.flags[i], b.flags[i]);
        }
    }
    DiskTraceCache::Stats s = disk.snapshot();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    removeTree(root);
}

TEST(DiskTraceCache, EntryNameSanitizesSeparators)
{
    EXPECT_EQ(DiskTraceCache::entryName("micro.stride", 1, 5000),
              "micro.stride-s1-r5000-v3.gdtr");
    EXPECT_EQ(DiskTraceCache::entryName("a/b c", 3, 9),
              "a_b_c-s3-r9-v3.gdtr");
}

TEST(DiskTraceCache, CorruptEntryQuarantinedAndRegenerated)
{
    std::string root = tempRoot("quarantine");
    const std::string kernel = "micro.periodic";

    {
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 9, 7000);
        EXPECT_TRUE(acq.generated);
        EXPECT_FALSE(acq.fromDisk);
        EXPECT_EQ(cache.snapshot().diskStores, 1u);
    }

    // Flip a payload byte in the stored entry.
    std::string entry =
        root + "/" + DiskTraceCache::entryName(kernel, 9, 7000);
    std::vector<uint8_t> bytes = slurp(entry);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x01;
    spit(entry, bytes);

    // A fresh cache (fresh process, logically) detects the damage,
    // quarantines the entry, regenerates, and re-persists.
    {
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 9, 7000);
        EXPECT_TRUE(acq.generated);
        EXPECT_FALSE(acq.fromDisk);
        TraceCache::Stats s = cache.snapshot();
        EXPECT_EQ(s.diskCorruptRecoveries, 1u);
        EXPECT_EQ(s.diskStores, 1u);
    }
    struct stat st;
    EXPECT_EQ(::stat((entry + ".corrupt").c_str(), &st), 0)
        << "corrupt entry was not quarantined";

    // And the regenerated entry serves the next process from disk.
    {
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 9, 7000);
        EXPECT_FALSE(acq.generated);
        EXPECT_TRUE(acq.fromDisk);
    }
    removeTree(root);
}

TEST(DiskTraceCache, StoreSurvivesARemovedRoot)
{
    // Stores run on sweep and gdiffd worker threads: a cache root
    // that vanishes after first use (or a full disk) must cost the
    // entry, not the process.
    std::string root = tempRoot("vanished");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    DiskTraceCache disk(cfg);
    EXPECT_EQ(disk.load("micro.stride", 1, 3000), nullptr); // makes root
    removeTree(root);

    auto trace = MaterializedTrace::generate("micro.stride", 1, 3000);
    disk.store("micro.stride", 1, 3000, *trace);
    EXPECT_EQ(disk.snapshot().stores, 0u);
    EXPECT_EQ(disk.load("micro.stride", 1, 3000), nullptr);
    struct stat st;
    EXPECT_NE(::stat(root.c_str(), &st), 0) << "store recreated the root";
    removeTree(root);
}

TEST(DiskTraceCache, EmptyEntryIsQuarantinedNotAMiss)
{
    // A missing entry is a plain miss; an entry that exists but is
    // unreadable — here an empty file — is corrupt.
    std::string root = tempRoot("empty");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    DiskTraceCache disk(cfg);
    EXPECT_EQ(disk.load("micro.stride", 1, 3000), nullptr);
    EXPECT_EQ(disk.snapshot().corruptRecoveries, 0u);

    std::string entry =
        root + "/" + DiskTraceCache::entryName("micro.stride", 1, 3000);
    spit(entry, {});
    EXPECT_EQ(disk.load("micro.stride", 1, 3000), nullptr);
    DiskTraceCache::Stats s = disk.snapshot();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.corruptRecoveries, 1u);
    struct stat st;
    EXPECT_EQ(::stat((entry + ".corrupt").c_str(), &st), 0);
    removeTree(root);
}

TEST(DiskTraceCache, EvictionHonoursByteCap)
{
    std::string root = tempRoot("evict");
    DiskTraceCache::Config cfg;
    cfg.root = root;
    // Smaller than any one entry: micro.stride compresses to a few
    // hundred bytes, but never under the 32 bytes of header+footer.
    cfg.maxBytes = 64;
    DiskTraceCache disk(cfg);

    auto a = MaterializedTrace::generate("micro.stride", 1, 5000);
    auto b = MaterializedTrace::generate("micro.stride", 2, 5000);
    disk.store("micro.stride", 1, 5000, *a);
    disk.store("micro.stride", 2, 5000, *b); // sweeps seed 1 out

    EXPECT_EQ(disk.load("micro.stride", 1, 5000), nullptr);
    EXPECT_NE(disk.load("micro.stride", 2, 5000), nullptr);
    DiskTraceCache::Stats s = disk.snapshot();
    EXPECT_GE(s.evictions, 1u);
    removeTree(root);
}

// -------------------------------------------------- cross-process

/** @return the child's exit code, or -1 on abnormal termination. */
int
waitForChild(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(DiskTraceCacheCrossProcess, ChildPopulatesParentReplays)
{
    std::string root = tempRoot("xproc");
    const std::string kernel = "micro.affine";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: a separate process with its own (empty) memory
        // tier populates the shared disk tier.
        TraceCache cache;
        cache.setDiskRoot(root);
        auto acq = cache.acquire(kernel, 11, 8000);
        ::_exit(acq.generated && !acq.fromDisk ? 0 : 3);
    }
    ASSERT_EQ(waitForChild(pid), 0);

    TraceCache cache;
    cache.setDiskRoot(root);
    auto acq = cache.acquire(kernel, 11, 8000);
    EXPECT_FALSE(acq.generated);
    EXPECT_TRUE(acq.fromDisk);
    EXPECT_EQ(cache.snapshot().diskHits, 1u);

    // Bit-identical to a from-scratch generation.
    auto want = generateRecords(kernel, 11, 8000);
    expectSameRecords(drainRecords(*acq.source), want,
                      "cross-process replay");
    removeTree(root);
}

TEST(DiskTraceCacheCrossProcess, ConcurrentWritersRaceSafely)
{
    std::string root = tempRoot("race");
    const std::string kernel = "micro.periodic";

    // Four processes generate and store the same entry at once; the
    // tmp-file + atomic-rename protocol means every interleaving
    // leaves one valid entry (all writers produce identical bytes).
    std::vector<pid_t> children;
    for (int i = 0; i < 4; ++i) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            TraceCache cache;
            cache.setDiskRoot(root);
            auto acq = cache.acquire(kernel, 21, 6000);
            ::_exit(acq.source ? 0 : 3);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children)
        EXPECT_EQ(waitForChild(pid), 0);

    // No temp litter; the entry is valid and replays identically.
    DIR *d = ::opendir(root.c_str());
    ASSERT_NE(d, nullptr);
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        EXPECT_EQ(name.find(".tmp."), std::string::npos)
            << "leftover temp file: " << name;
    }
    ::closedir(d);

    TraceCache cache;
    cache.setDiskRoot(root);
    auto acq = cache.acquire(kernel, 21, 6000);
    EXPECT_TRUE(acq.fromDisk);
    auto want = generateRecords(kernel, 21, 6000);
    expectSameRecords(drainRecords(*acq.source), want,
                      "post-race replay");
    removeTree(root);
}

// -------------------------------------------------- equivalence

TEST(TraceV3Equivalence, V2AndV3ReplaysDriveIdenticalResults)
{
    auto records = generateRecords("mcf", 1, 60000);
    std::string v2 = tempRoot("eqv2") + ".gdtr";
    std::string v3 = tempRoot("eqv3") + ".gdtr";
    writeRecords(v2, records, traceVersionV2);
    writeRecords(v3, records, traceVersionV3);

    auto run = [](const std::string &path) {
        TraceFileSource src(path);
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
    EXPECT_DOUBLE_EQ(run(v2), run(v3));
    std::remove(v2.c_str());
    std::remove(v3.c_str());
}

/** Run a small sweep and return {job key -> metrics}. */
std::map<std::string, std::vector<std::pair<std::string, double>>>
runSweep(unsigned threads, const std::string &cacheDir)
{
    runner::SweepSpec spec;
    spec.mode = runner::JobMode::Profile;
    spec.workloads = {"micro.stride", "micro.periodic"};
    spec.predictors = {"stride", "gdiff"};
    spec.orders = {4, 8};
    spec.seeds = {1, 2};
    spec.defaultInstructions = 12'000;
    spec.warmup = 1'000;

    runner::SweepRunner sweep(spec);
    runner::CollectingSink collect;
    sweep.addSink(collect);
    runner::SweepOptions opt;
    opt.threads = threads;
    opt.traceCacheDir = cacheDir;
    sweep.run(opt);
    std::map<std::string,
             std::vector<std::pair<std::string, double>>> out;
    for (const auto &r : collect.records())
        out[r.spec.key()] = r.result.metrics;
    return out;
}

TEST(TraceV3Equivalence, DiskCachedSweepBitIdenticalToUncached)
{
    std::string root = tempRoot("sweep");
    TraceCache::global().clear();
    auto uncached = runSweep(1, "");
    ASSERT_EQ(uncached.size(), 16u);

    for (unsigned threads : {1u, 4u}) {
        // Cold pass (populates the disk tier) and warm pass (replays
        // from it) must both match the uncached metrics exactly.
        removeTree(root);
        TraceCache::global().clear();
        auto cold = runSweep(threads, root);
        EXPECT_EQ(cold, uncached) << "cold, threads=" << threads;

        TraceCache::global().clear();
        auto warm = runSweep(threads, root);
        EXPECT_EQ(warm, uncached) << "warm, threads=" << threads;
        TraceCache::Stats s = TraceCache::global().snapshot();
        EXPECT_EQ(s.generations, 0u)
            << "warm sweep regenerated a trace (threads=" << threads
            << ")";
        EXPECT_GE(s.diskHits, 4u);
    }
    TraceCache::global().setDiskRoot("");
    TraceCache::global().clear();
    removeTree(root);
}

} // namespace
} // namespace workload
} // namespace gdiff
