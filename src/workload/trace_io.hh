/**
 * @file
 * Binary trace files: record a kernel's dynamic stream once, replay
 * it many times (SimpleScalar-style trace-driven methodology, and the
 * natural interchange point for driving the predictors from traces
 * produced elsewhere).
 *
 * Two on-disk formats share the 16-byte header (magic "GDTR",
 * version, record count) and the same block structure of up to
 * TraceChunk::capacity records per block:
 *
 *  - Version 2 (chunked columnar, raw): each block is a u32 record
 *    count followed by one little-endian column per field — the
 *    on-disk mirror of the in-memory SoA TraceChunk.
 *
 *  - Version 3 (chunked columnar, stride-delta compressed): each
 *    block is a u32 record count, a u32 payload length, a u64 FNV-1a
 *    digest of the payload, and then one *codec-tagged* column per
 *    field (util/varint.hh — zigzag-varint deltas, run-length coded
 *    deltas for constant-stride spans, byte runs, each optionally
 *    visited phase by phase at the block's loop period). The writer
 *    finds one period per block from the op column, computes every
 *    candidate codec's exact size, and encodes each column once with
 *    the smallest, falling back to the raw column when the data is
 *    incompressible.
 *    A 16-byte footer carries an FNV-1a digest of every block byte,
 *    so whole-file integrity can be checked cheaply (the persistent
 *    disk cache does, before trusting an entry). Stride-dominant
 *    streams — the paper's whole subject — compress by an order of
 *    magnitude; see bench/trace_compress.
 *
 * Writers emit version 3 by default and version 2 on request. The
 * reader accepts both transparently and rejects anything else with
 * an error naming the found and supported versions.
 *
 * One reader decodes every trace byte: TraceFileReader maps the file
 * read-only and walks the mapped span block by block, returning
 * *typed* errors (TraceIoStatus) and never terminating the process —
 * truncations, flipped bytes and hostile varints come back as a clean
 * status. The persistent disk cache loads its entries through it and
 * quarantines the corrupt ones. TraceFileSource is the small
 * TraceSource adapter for simulation drivers: it calls fatal() on
 * any error the reader reports.
 *
 * TraceWriter never terminates the process either: the first I/O
 * failure sticks, later writes are skipped, and close() returns it.
 */

#ifndef GDIFF_WORKLOAD_TRACE_IO_HH
#define GDIFF_WORKLOAD_TRACE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace gdiff {
namespace workload {

/// @name trace format versions
/// @{
inline constexpr uint32_t traceVersionV2 = 2;
inline constexpr uint32_t traceVersionV3 = 3;
/// oldest and newest versions the reader accepts
inline constexpr uint32_t traceVersionMin = traceVersionV2;
inline constexpr uint32_t traceVersionMax = traceVersionV3;
/// @}

/** What a trace read attempt concluded. Everything except Ok and End
 *  is a hard error for the stream. */
enum class TraceIoStatus
{
    Ok,             ///< a chunk was produced
    End,            ///< clean end of stream (and footer verified, v3)
    IoError,        ///< open/seek/read failed at the OS level
    Truncated,      ///< the file ends before the promised data
    BadMagic,       ///< not a gdiff trace file
    BadVersion,     ///< version outside [traceVersionMin, max]
    Corrupt,        ///< structurally invalid block/column/footer
    DigestMismatch, ///< stored digest does not match the bytes
};

/** @return a stable lowercase name for @p s (logs, tests). */
const char *traceIoStatusName(TraceIoStatus s);

/** A status plus a human-readable message for the error cases. */
struct TraceIoResult
{
    TraceIoStatus status = TraceIoStatus::Ok;
    std::string message;

    bool ok() const { return status == TraceIoStatus::Ok; }
    bool end() const { return status == TraceIoStatus::End; }
    bool failed() const { return !ok() && !end(); }
};

namespace detail {
/// instruction-field column scratch of a writer or reader (~80 KiB)
struct BlockColumns;
} // namespace detail

/** Writes TraceRecords to a binary trace file in chunked blocks. */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing (truncates). A file that cannot be
     * created is reported by close().
     *
     * @param version on-disk format: traceVersionV3 (default,
     * stride-delta compressed) or traceVersionV2 (raw columns).
     */
    explicit TraceWriter(const std::string &path,
                         uint32_t version = traceVersionV3);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record (buffered into the pending block). */
    void append(const TraceRecord &r);

    /** Append a whole chunk as one block. */
    void append(const TraceChunk &chunk);

    /**
     * Flush, finalise the header (and v3 footer), close. Idempotent.
     * @return Ok, or the first I/O failure since construction (an
     * IoError; the file is then incomplete).
     */
    TraceIoResult close();

    /** @return records written so far. */
    uint64_t written() const { return count; }

    /** @return the format version being written. */
    uint32_t version() const { return ver; }

  private:
    /** Write the pending partial block, if any. */
    void flushPending();

    /** Encode and write one block in the selected format. */
    void writeBlock(const TraceChunk &chunk);

    /** fwrite unless a write already failed; records a failure. */
    void writeRaw(const void *data, size_t bytes);

    std::FILE *file = nullptr;
    std::string path;
    uint32_t ver = traceVersionV3;
    uint64_t count = 0;
    uint64_t fileDigest = 0; ///< running FNV over v3 block bytes
    TraceIoResult status;    ///< first failure, sticky
    std::unique_ptr<TraceChunk> pending;
    std::unique_ptr<detail::BlockColumns> cols; ///< gather scratch
    std::vector<uint8_t> payload;               ///< block being built
};

/**
 * Trace-file reader with typed, recoverable errors.
 *
 * open() maps the file read-only; read() decodes one block at a time
 * from the mapped bytes. Every malformed input — wrong magic or
 * version, truncation, corrupt blocks, digest mismatches — comes back
 * as a TraceIoResult so callers (the persistent disk cache, the
 * corruption tests) can handle it. The file must not be truncated
 * while it is open.
 */
class TraceFileReader
{
  public:
    TraceFileReader();
    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /**
     * Map @p path and validate its header.
     *
     * @return Ok; IoError when the file cannot be opened or mapped
     * (a missing file included); Truncated when it is shorter than
     * the header (an empty file included); BadMagic or BadVersion.
     *
     * @param maxVersion newest format version to accept; readers
     * from the version-2 era are simulated in tests by passing
     * traceVersionV2.
     */
    TraceIoResult open(const std::string &path,
                       uint32_t maxVersion = traceVersionMax);

    /**
     * Read the next block into @p chunk.
     * @return Ok with records in @p chunk, End at the clean end of
     * the stream (after footer verification for v3), or an error.
     */
    TraceIoResult read(TraceChunk &chunk);

    /** Rewind to the first record. */
    TraceIoResult rewind();

    /** @return total records the header promises. */
    uint64_t totalRecords() const { return total; }

    /** @return the file's format version (valid after open()). */
    uint32_t version() const { return ver; }

  private:
    /** Release the current mapping, if any. */
    void unmap();

    std::string path;
    const uint8_t *base = nullptr;   ///< the mapped file; null = closed
    size_t size = 0;                 ///< mapped bytes
    const uint8_t *cursor = nullptr; ///< next unread block
    uint32_t ver = 0;
    uint64_t total = 0;
    uint64_t consumed = 0;
    uint64_t runningDigest = 0;
    std::unique_ptr<detail::BlockColumns> cols; ///< decode scratch
};

/**
 * Replays a binary trace file as a TraceSource: fillRef() decodes one
 * on-disk block per call into the caller's scratch chunk.
 */
class TraceFileSource : public TraceSource
{
  public:
    /** Open @p path. Calls fatal() on any error open() reports. */
    explicit TraceFileSource(const std::string &path);

    /** Calls fatal() on a malformed block. */
    const TraceChunk *fillRef(TraceChunk &scratch) override;

    /** @return total records the header promises. */
    uint64_t totalRecords() const { return reader.totalRecords(); }

    /** Rewind to the first record (for multi-pass experiments). */
    void rewind();

  private:
    TraceFileReader reader;
};

/**
 * Phase/period detector for phase-aware sampling strata (src/sample/)
 * and check::mine: @return the period L (2..48) at which the column's
 * lag-L deltas are most nearly constant per phase over a <= 2048-
 * element scan prefix, or 1 when no period shows a useful signal. A
 * stream's (value-period, pc-period) pair is a cheap fingerprint of
 * which loop phase it is in.
 */
uint32_t detectStridePeriod(const uint64_t *v, uint32_t n);

/**
 * The v3 writer's block period: @return the period L (2..48) at which
 * the u8 column most often repeats itself (v[i] == v[i-L]) over a
 * <= 2048-element scan prefix, or 1 when no period shows a useful
 * signal. The writer scans each block's op column once and offers
 * every column's phase-transposed codecs at that one L.
 */
uint32_t detectBytePeriod(const uint8_t *v, uint32_t n);

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_TRACE_IO_HH
