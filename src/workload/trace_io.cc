#include "workload/trace_io.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "util/logging.hh"
#include "util/simd.hh"
#include "util/varint.hh"

namespace gdiff {
namespace workload {

namespace {

constexpr uint32_t traceMagic = 0x52544447;  // "GDTR" little-endian
constexpr uint32_t footerMagic = 0x33544447; // "GDT3" little-endian

struct FileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t count;
};
static_assert(sizeof(FileHeader) == 16, "header layout");

/** v3 per-block header: record count, payload length, payload digest. */
struct BlockHeaderV3
{
    uint32_t n;
    uint32_t payloadBytes;
    uint64_t digest;
};
static_assert(sizeof(BlockHeaderV3) == 16, "block header layout");

/** v3 trailer: whole-file integrity for persistent cache entries. */
struct FooterV3
{
    uint32_t magic;
    uint32_t reserved;
    uint64_t digest; ///< FNV-1a over every block byte
};
static_assert(sizeof(FooterV3) == 16, "footer layout");

/// per-column codec tags (v3)
enum ColumnCodec : uint8_t
{
    codecRaw = 0,         ///< native-width little-endian elements
    codecDeltaVarint = 1, ///< zigzag-varint consecutive deltas
    codecDeltaRle = 2,    ///< run-length coded deltas (stride spans)
    codecByteRle = 3,     ///< run-length coded bytes (u8 columns)
    /// The transposed codecs: varint period L, then the plain codec
    /// over the column visited phase by phase. A loop of L
    /// instructions interleaves L per-PC streams in the global
    /// column; each phase is one stream with its *local* stride, so a
    /// constant-stride loop collapses to one run per phase — the
    /// paper's global-vs-local stride observation, used as a codec.
    codecDeltaRleT = 4,
    codecByteRleT = 5,
    codecDeltaVarintT = 6,
};

/// longest phase period the encoder searches for — long enough for
/// multi-iteration cycles (a loop whose phases take different paths
/// repeats only once per full cycle of iterations)
constexpr uint32_t maxPeriod = 48;

/// elements scored per candidate period (a prefix is plenty to find
/// the loop length, and bounds the O(n * maxPeriod) search)
constexpr uint32_t periodScanWindow = 2048;

/// columns per block, in on-disk order: op, rd, rs1, rs2, flags,
/// target, imm, seq, pc, nextPc, value, effAddr
constexpr unsigned numColumns = 12;

/// bytes one record occupies across the raw v2 columns
constexpr size_t v2RecordBytes = 5 * 1 + 4 + 6 * 8;

/// upper bound on a v3 block payload: the encoder never emits a
/// column larger than its raw form, plus 5 bytes of tag+length
/// framing per column — anything bigger is corrupt by construction
constexpr size_t maxV3PayloadBytes =
    v2RecordBytes * TraceChunk::capacity + numColumns * 5;

} // anonymous namespace

namespace detail {

/**
 * One block's instruction fields in scalar columns, so the on-disk
 * layout is independent of isa::Instruction's padding: the writer
 * gathers into it, the reader decodes into it and scatters. target
 * and imm are held as 64-bit lanes, the form the delta codecs use.
 */
struct BlockColumns
{
    std::array<uint8_t, TraceChunk::capacity> op, rd, rs1, rs2;
    std::array<uint64_t, TraceChunk::capacity> target, imm;
};

} // namespace detail

namespace {

using detail::BlockColumns;

/** Gather @p chunk's instruction fields into scalar columns. */
void
gatherInstColumns(const TraceChunk &chunk, BlockColumns &cols)
{
    for (uint32_t i = 0; i < chunk.size; ++i) {
        const isa::Instruction &in = chunk.inst[i];
        cols.op[i] = static_cast<uint8_t>(in.op);
        cols.rd[i] = in.rd;
        cols.rs1[i] = in.rs1;
        cols.rs2[i] = in.rs2;
        cols.target[i] = in.target;
        cols.imm[i] = static_cast<uint64_t>(in.imm);
    }
}

/** Scatter decoded scalar columns back into @p chunk's instructions. */
void
scatterInstColumns(TraceChunk &chunk, const BlockColumns &cols,
                   uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i) {
        isa::Instruction &in = chunk.inst[i];
        in.op = static_cast<isa::Opcode>(cols.op[i]);
        in.rd = cols.rd[i];
        in.rs1 = cols.rs1[i];
        in.rs2 = cols.rs2[i];
        in.target = static_cast<uint32_t>(cols.target[i]);
        in.imm = static_cast<int64_t>(cols.imm[i]);
    }
}

/** One on-disk column of a block: u8 bytes or 64-bit lanes. */
struct Column
{
    const char *name;
    size_t elemBytes; ///< raw element width: 1, 4 or 8
    uint8_t *bytes;   ///< the u8 column, or null
    uint64_t *lanes;  ///< the wide column, or null
};

/** @return the block's columns in on-disk order. The writer passes a
 *  chunk it only reads. */
std::array<Column, numColumns>
columnsOf(BlockColumns &cols, TraceChunk &chunk)
{
    // value is int64_t; its unsigned lanes alias it legally
    auto *value = reinterpret_cast<uint64_t *>(chunk.value.data());
    return {{
        {"op", 1, cols.op.data(), nullptr},
        {"rd", 1, cols.rd.data(), nullptr},
        {"rs1", 1, cols.rs1.data(), nullptr},
        {"rs2", 1, cols.rs2.data(), nullptr},
        {"flags", 1, chunk.flags.data(), nullptr},
        {"target", 4, nullptr, cols.target.data()},
        {"imm", 8, nullptr, cols.imm.data()},
        {"seq", 8, nullptr, chunk.seq.data()},
        {"pc", 8, nullptr, chunk.pc.data()},
        {"nextPc", 8, nullptr, chunk.nextPc.data()},
        {"value", 8, nullptr, value},
        {"effAddr", 8, nullptr, chunk.effAddr.data()},
    }};
}

// Like the headers, the u32 fields are the host's little-endian bytes.
void
appendLE32(std::vector<uint8_t> &out, uint32_t v)
{
    const auto *b = reinterpret_cast<const uint8_t *>(&v);
    out.insert(out.end(), b, b + 4);
}

uint32_t
readLE32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

/** Append @p c's first @p n elements as little-endian raw ones. */
void
appendRaw(std::vector<uint8_t> &out, const Column &c, uint32_t n)
{
    if (c.bytes) {
        out.insert(out.end(), c.bytes, c.bytes + n);
    } else if (c.elemBytes == 8) {
        const auto *b = reinterpret_cast<const uint8_t *>(c.lanes);
        out.insert(out.end(), b, b + size_t(n) * 8);
    } else {
        for (uint32_t i = 0; i < n; ++i)
            appendLE32(out, static_cast<uint32_t>(c.lanes[i]));
    }
}

/** Inverse of appendRaw(): read @p n raw elements at @p p into @p c. */
void
readRaw(const uint8_t *p, const Column &c, uint32_t n)
{
    if (c.bytes) {
        std::memcpy(c.bytes, p, n);
    } else if (c.elemBytes == 8) {
        std::memcpy(c.lanes, p, size_t(n) * 8);
    } else {
        for (uint32_t i = 0; i < n; ++i)
            c.lanes[i] = readLE32(p + size_t(i) * 4);
    }
}

TraceIoResult
ioError(TraceIoStatus status, std::string message)
{
    return TraceIoResult{status, std::move(message)};
}

/**
 * The scan both period detectors share: @return the L in
 * 2..maxPeriod whose @p score(window, L) — matches among the lag-L
 * comparisons of a scan prefix — is best once normalised, or 1 when
 * none reaches 1/8 of the window. @p lags is how many periods back
 * one comparison reaches.
 */
template <typename Score>
uint32_t
bestPeriod(uint32_t n, uint32_t lags, Score &&score)
{
    if (n < 4 * 2)
        return 1;
    const uint32_t window = n < periodScanWindow ? n : periodScanWindow;
    uint32_t bestL = 1;
    uint64_t bestScore = 0;
    for (uint32_t L = 2; L <= maxPeriod && lags * L < window; ++L) {
        // Normalize so long and short periods compete fairly within
        // the shared window.
        uint64_t s = score(window, L) * window / (window - lags * L);
        if (s > bestScore && s * 8 >= window) {
            bestScore = s;
            bestL = L;
        }
    }
    return bestL;
}

} // anonymous namespace

uint32_t
detectStridePeriod(const uint64_t *v, uint32_t n)
{
    // Lane kernel for the lag-L second-difference count: the scan
    // runs once per candidate period for every profiled sampling
    // window, and is the dominant cost of profiling.
    return bestPeriod(n, 2, [v](uint32_t window, uint32_t L) {
        return uint64_t(simd::countSecondDiffZero(v, window, L));
    });
}

uint32_t
detectBytePeriod(const uint8_t *v, uint32_t n)
{
    // op is a function of pc, so its byte period peaks at the loop
    // length: the period that de-interleaves every column's phases.
    return bestPeriod(n, 1, [v](uint32_t window, uint32_t L) {
        uint64_t matches = 0;
        for (uint32_t i = L; i < window; ++i)
            matches += v[i] == v[i - L];
        return matches;
    });
}

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
    case TraceIoStatus::Ok: return "ok";
    case TraceIoStatus::End: return "end";
    case TraceIoStatus::IoError: return "io_error";
    case TraceIoStatus::Truncated: return "truncated";
    case TraceIoStatus::BadMagic: return "bad_magic";
    case TraceIoStatus::BadVersion: return "bad_version";
    case TraceIoStatus::Corrupt: return "corrupt";
    case TraceIoStatus::DigestMismatch: return "digest_mismatch";
    }
    return "unknown";
}

// ------------------------------------------------------- the codecs

namespace {

/**
 * Append column @p c as one tagged v3 column (tag, u32 length,
 * payload). The candidates are raw, the plain codecs and, when the
 * block period @p L exceeds 1, their phase-transposed forms at L.
 * Their sizes are computed exactly; the smallest wins, ties going to
 * the transposed forms first and raw last, and only the winner is
 * encoded.
 */
void
putColumn(std::vector<uint8_t> &out, const Column &c, uint32_t n,
          uint32_t L)
{
    std::array<size_t, 7> size; // by tag; SIZE_MAX = not a candidate
    size.fill(SIZE_MAX);
    size[codecRaw] = c.elemBytes * n;
    const size_t periodBytes = codec::varintBytes(L);
    if (c.bytes) {
        size[codecByteRle] = codec::byteRleSize(c.bytes, n, 1);
        if (L > 1)
            size[codecByteRleT] =
                periodBytes + codec::byteRleSize(c.bytes, n, L);
    } else {
        codec::DeltaSizes plain = codec::deltaSizes(c.lanes, n, 1);
        size[codecDeltaVarint] = plain.varint;
        size[codecDeltaRle] = plain.rle;
        if (L > 1) {
            codec::DeltaSizes phased = codec::deltaSizes(c.lanes, n, L);
            size[codecDeltaVarintT] = periodBytes + phased.varint;
            size[codecDeltaRleT] = periodBytes + phased.rle;
        }
    }
    uint8_t tag = codecDeltaRleT;
    for (uint8_t t : {codecByteRleT, codecDeltaVarintT, codecDeltaRle,
                      codecByteRle, codecDeltaVarint, codecRaw})
        if (size[t] < size[tag])
            tag = t;

    out.push_back(tag);
    appendLE32(out, static_cast<uint32_t>(size[tag]));
    const size_t start = out.size();
    const uint32_t period = tag >= codecDeltaRleT ? L : 1;
    if (period > 1)
        codec::putVarint(out, L);
    switch (tag) {
    case codecRaw: appendRaw(out, c, n); break;
    case codecDeltaVarint:
    case codecDeltaVarintT:
        codec::encodeDeltaVarint(c.lanes, n, period, out);
        break;
    case codecDeltaRle:
    case codecDeltaRleT:
        codec::encodeDeltaRle(c.lanes, n, period, out);
        break;
    default: codec::encodeByteRle(c.bytes, n, period, out); break;
    }
    GDIFF_ASSERT(out.size() - start == size[tag],
                 "column '%s' (codec %u) encoded to %zu bytes, sized %zu",
                 c.name, tag, out.size() - start, size[tag]);
}

/**
 * Decode one v3 column payload straight into column @p c: the
 * transposed codecs write their phases in place.
 * @return false on any structural violation.
 */
bool
decodeColumn(uint8_t tag, const uint8_t *data, uint32_t len,
             uint32_t n, const Column &c)
{
    uint32_t L = 1;
    if (tag >= codecDeltaRleT) { // transposed: the period L leads
        uint64_t period = 0;
        size_t used = codec::getVarint(data, data + len, &period);
        if (used == 0 || period < 2 || period > n)
            return false;
        data += used;
        len -= static_cast<uint32_t>(used);
        L = static_cast<uint32_t>(period);
    }
    switch (tag) {
    case codecRaw:
        if (len != c.elemBytes * n)
            return false;
        readRaw(data, c, n);
        return true;
    case codecDeltaVarint:
    case codecDeltaVarintT:
        return c.lanes &&
               codec::decodeDeltaVarint(data, len, c.lanes, n, L);
    case codecDeltaRle:
    case codecDeltaRleT:
        return c.lanes && codec::decodeDeltaRle(data, len, c.lanes, n, L);
    case codecByteRle:
    case codecByteRleT:
        return c.bytes && codec::decodeByteRle(data, len, c.bytes, n, L);
    default:
        return false;
    }
}

/**
 * Decode a complete column section (@p bytes bytes at @p payload)
 * into @p chunk: v3's tagged columns, or with @p tagged false v2's
 * raw ones. On failure @p why names the offending column.
 */
bool
decodeColumns(const uint8_t *payload, size_t bytes, uint32_t n,
              bool tagged, TraceChunk &chunk, BlockColumns &cols,
              std::string *why)
{
    const uint8_t *p = payload;
    const uint8_t *end = payload + bytes;
    for (const Column &c : columnsOf(cols, chunk)) {
        uint8_t tag = codecRaw;
        auto len = static_cast<uint32_t>(c.elemBytes * n);
        if (tagged) {
            if (end - p < 5) {
                *why = "column directory truncated";
                return false;
            }
            tag = p[0];
            len = readLE32(p + 1);
            p += 5;
        }
        if (static_cast<size_t>(end - p) < len) {
            *why = std::string("column '") + c.name +
                   "' overruns the block payload";
            return false;
        }
        if (!decodeColumn(tag, p, len, n, c)) {
            *why = std::string("column '") + c.name +
                   "' payload is malformed";
            return false;
        }
        p += len;
    }
    if (p != end) {
        *why = "trailing bytes after the last column";
        return false;
    }
    scatterInstColumns(chunk, cols, n);
    chunk.size = n;
    return true;
}

/** Validate a file header; fills @p version/@p count on success. */
TraceIoResult
checkHeader(const FileHeader &h, const std::string &name,
            uint32_t maxVersion, uint32_t *version, uint64_t *count)
{
    if (h.magic != traceMagic) {
        return ioError(TraceIoStatus::BadMagic,
                       formatString("'%s' is not a gdiff trace "
                                    "(bad magic)",
                                    name.c_str()));
    }
    if (h.version < traceVersionMin || h.version > maxVersion) {
        return ioError(
            TraceIoStatus::BadVersion,
            formatString("trace '%s' has format version %u; this "
                         "reader supports versions %u..%u",
                         name.c_str(), h.version, traceVersionMin,
                         maxVersion));
    }
    *version = h.version;
    *count = h.count;
    return TraceIoResult{};
}

} // anonymous namespace

// ----------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(const std::string &p, uint32_t version)
    : path(p), ver(version), fileDigest(codec::fnvOffsetBasis),
      cols(std::make_unique<detail::BlockColumns>())
{
    GDIFF_ASSERT(ver == traceVersionV2 || ver == traceVersionV3,
                 "unsupported trace write version %u", ver);
    file = std::fopen(path.c_str(), "wb");
    if (!file) {
        status = ioError(TraceIoStatus::IoError,
                         formatString("cannot create trace file '%s' "
                                      "(%s)",
                                      path.c_str(),
                                      std::strerror(errno)));
        return;
    }
    FileHeader h{traceMagic, ver, 0};
    writeRaw(&h, sizeof(h));
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const TraceRecord &r)
{
    GDIFF_ASSERT(file || status.failed(),
                 "append to a closed TraceWriter");
    if (!pending)
        pending = std::make_unique<TraceChunk>();
    pending->push(r);
    ++count;
    if (pending->full())
        flushPending();
}

void
TraceWriter::append(const TraceChunk &chunk)
{
    GDIFF_ASSERT(file || status.failed(),
                 "append to a closed TraceWriter");
    if (chunk.empty())
        return;
    // Flush the partial per-record block first so records stay in
    // stream order whatever mix of append() overloads fed the file.
    flushPending();
    writeBlock(chunk);
    count += chunk.size;
}

void
TraceWriter::flushPending()
{
    if (!pending || pending->empty())
        return;
    writeBlock(*pending); // records were counted as they arrived
    pending->clear();
}

void
TraceWriter::writeRaw(const void *data, size_t bytes)
{
    if (status.failed() || bytes == 0)
        return;
    if (std::fwrite(data, 1, bytes, file) != bytes) {
        status = ioError(TraceIoStatus::IoError,
                         formatString("short write to trace file "
                                      "'%s' (%s)",
                                      path.c_str(),
                                      std::strerror(errno)));
    }
}

void
TraceWriter::writeBlock(const TraceChunk &chunk)
{
    const uint32_t n = chunk.size;
    GDIFF_ASSERT(n > 0 && n <= TraceChunk::capacity,
                 "trace block size %u out of range", n);
    if (status.failed())
        return;

    gatherInstColumns(chunk, *cols);
    // The writer only reads the chunk's columns.
    const auto columns =
        columnsOf(*cols, const_cast<TraceChunk &>(chunk));
    payload.clear();
    if (ver == traceVersionV2) {
        for (const Column &c : columns)
            appendRaw(payload, c, n);
        writeRaw(&n, sizeof(n));
        writeRaw(payload.data(), payload.size());
        return;
    }

    // v3: one period scan per block, then each column encoded once
    // with its smallest codec (raw included — incompressible columns
    // cost only the 5-byte tag+length framing over v2).
    const uint32_t L = detectBytePeriod(cols->op.data(), n);
    for (const Column &c : columns)
        putColumn(payload, c, n, L);

    BlockHeaderV3 bh{n, static_cast<uint32_t>(payload.size()),
                     codec::fnv1a(payload.data(), payload.size())};
    fileDigest = codec::fnv1a(&bh, sizeof(bh), fileDigest);
    fileDigest =
        codec::fnv1a(payload.data(), payload.size(), fileDigest);
    writeRaw(&bh, sizeof(bh));
    writeRaw(payload.data(), payload.size());
}

TraceIoResult
TraceWriter::close()
{
    if (!file)
        return status;
    flushPending();
    if (ver == traceVersionV3) {
        FooterV3 foot{footerMagic, 0, fileDigest};
        writeRaw(&foot, sizeof(foot));
    }
    // Finalise the record count in the header.
    FileHeader h{traceMagic, ver, count};
    if (status.ok() && std::fseek(file, 0, SEEK_SET) != 0) {
        status = ioError(TraceIoStatus::IoError,
                         formatString("cannot finalise trace header "
                                      "of '%s'",
                                      path.c_str()));
    }
    writeRaw(&h, sizeof(h));
    if (std::fclose(file) != 0 && status.ok()) {
        status = ioError(TraceIoStatus::IoError,
                         formatString("cannot close trace file '%s' "
                                      "(%s)",
                                      path.c_str(),
                                      std::strerror(errno)));
    }
    file = nullptr;
    return status;
}

// ------------------------------------------------- TraceFileReader

TraceFileReader::TraceFileReader()
    : cols(std::make_unique<detail::BlockColumns>())
{}

TraceFileReader::~TraceFileReader()
{
    unmap();
}

void
TraceFileReader::unmap()
{
    if (base)
        ::munmap(const_cast<uint8_t *>(base), size);
    base = nullptr;
    size = 0;
}

TraceIoResult
TraceFileReader::open(const std::string &p, uint32_t maxVersion)
{
    unmap();
    path = p;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return ioError(TraceIoStatus::IoError,
                       formatString("cannot open trace file '%s' (%s)",
                                    path.c_str(),
                                    std::strerror(errno)));
    }
    // A missing or unmappable file is an I/O error; a file too short
    // to hold the header (empty included) is truncated.
    TraceIoResult r;
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        r = ioError(TraceIoStatus::IoError,
                    formatString("cannot open trace file '%s' (not "
                                 "a regular file)",
                                 path.c_str()));
    } else if (static_cast<size_t>(st.st_size) < sizeof(FileHeader)) {
        r = ioError(TraceIoStatus::Truncated,
                    formatString("trace file '%s' is truncated",
                                 path.c_str()));
    } else {
        size = static_cast<size_t>(st.st_size);
        void *m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (m == MAP_FAILED) {
            size = 0;
            r = ioError(TraceIoStatus::IoError,
                        formatString("cannot map trace file '%s' (%s)",
                                     path.c_str(),
                                     std::strerror(errno)));
        } else {
            base = static_cast<const uint8_t *>(m);
        }
    }
    ::close(fd);
    if (r.failed())
        return r;

    FileHeader h{};
    std::memcpy(&h, base, sizeof(h));
    r = checkHeader(h, path, maxVersion, &ver, &total);
    if (r.failed()) {
        unmap();
        return r;
    }
    return rewind();
}

TraceIoResult
TraceFileReader::rewind()
{
    if (!base) {
        return ioError(TraceIoStatus::IoError,
                       "rewind of an unopened trace reader");
    }
    cursor = base + sizeof(FileHeader);
    consumed = 0;
    runningDigest = codec::fnvOffsetBasis;
    return TraceIoResult{};
}

TraceIoResult
TraceFileReader::read(TraceChunk &chunk)
{
    chunk.clear();
    if (!base) {
        return ioError(TraceIoStatus::IoError,
                       "read from an unopened trace reader");
    }
    const uint8_t *end = base + size;

    auto truncated = [&]() {
        return ioError(
            TraceIoStatus::Truncated,
            formatString("trace '%s' truncated after %llu of %llu "
                         "records",
                         path.c_str(),
                         static_cast<unsigned long long>(consumed),
                         static_cast<unsigned long long>(total)));
    };

    if (consumed >= total) {
        if (ver == traceVersionV3) {
            FooterV3 foot{};
            if (static_cast<size_t>(end - cursor) < sizeof(foot))
                return truncated();
            std::memcpy(&foot, cursor, sizeof(foot));
            if (foot.magic != footerMagic) {
                return ioError(
                    TraceIoStatus::Corrupt,
                    formatString("trace '%s' has a corrupt footer",
                                 path.c_str()));
            }
            if (foot.digest != runningDigest) {
                return ioError(
                    TraceIoStatus::DigestMismatch,
                    formatString("trace '%s' file digest mismatch "
                                 "(corrupt or tampered stream)",
                                 path.c_str()));
            }
        }
        return ioError(TraceIoStatus::End, "");
    }

    if (ver == traceVersionV2) {
        if (static_cast<size_t>(end - cursor) < 4)
            return truncated();
        uint32_t n = readLE32(cursor);
        if (n == 0 || n > TraceChunk::capacity ||
            n > total - consumed) {
            return ioError(
                TraceIoStatus::Corrupt,
                formatString("trace '%s' has a corrupt block of %u "
                             "records",
                             path.c_str(), n));
        }
        if (static_cast<size_t>(end - cursor - 4) <
            v2RecordBytes * n) {
            return truncated();
        }
        std::string unused; // raw columns of a checked length
        decodeColumns(cursor + 4, v2RecordBytes * n, n, false, chunk,
                      *cols, &unused);
        cursor += 4 + v2RecordBytes * n;
        consumed += n;
        return TraceIoResult{};
    }

    BlockHeaderV3 bh{};
    if (static_cast<size_t>(end - cursor) < sizeof(bh))
        return truncated();
    std::memcpy(&bh, cursor, sizeof(bh));
    if (bh.n == 0 || bh.n > TraceChunk::capacity ||
        bh.n > total - consumed || bh.payloadBytes == 0 ||
        bh.payloadBytes > maxV3PayloadBytes) {
        return ioError(
            TraceIoStatus::Corrupt,
            formatString("trace '%s' has a corrupt block header "
                         "(%u records, %u payload bytes)",
                         path.c_str(), bh.n, bh.payloadBytes));
    }
    if (static_cast<size_t>(end - cursor - sizeof(bh)) <
        bh.payloadBytes) {
        return truncated();
    }
    const uint8_t *payload = cursor + sizeof(bh);
    if (codec::fnv1a(payload, bh.payloadBytes) != bh.digest) {
        return ioError(
            TraceIoStatus::DigestMismatch,
            formatString("trace '%s' block digest mismatch after "
                         "%llu records",
                         path.c_str(),
                         static_cast<unsigned long long>(consumed)));
    }
    std::string why;
    if (!decodeColumns(payload, bh.payloadBytes, bh.n, true, chunk, *cols,
                       &why)) {
        return ioError(
            TraceIoStatus::Corrupt,
            formatString("trace '%s' has a corrupt block: %s",
                         path.c_str(), why.c_str()));
    }
    runningDigest = codec::fnv1a(&bh, sizeof(bh), runningDigest);
    runningDigest =
        codec::fnv1a(payload, bh.payloadBytes, runningDigest);
    cursor += sizeof(bh) + bh.payloadBytes;
    consumed += bh.n;
    return TraceIoResult{};
}

// ------------------------------------------------ TraceFileSource

TraceFileSource::TraceFileSource(const std::string &path)
{
    TraceIoResult r = reader.open(path);
    if (r.failed())
        fatal("%s", r.message.c_str());
}

const TraceChunk *
TraceFileSource::fillRef(TraceChunk &scratch)
{
    TraceIoResult r = reader.read(scratch);
    if (r.ok())
        return &scratch;
    if (r.end())
        return nullptr;
    fatal("%s", r.message.c_str());
}

void
TraceFileSource::rewind()
{
    TraceIoResult r = reader.rewind();
    if (r.failed())
        fatal("%s", r.message.c_str());
}

} // namespace workload
} // namespace gdiff
