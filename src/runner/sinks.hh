/**
 * @file
 * Pluggable result sinks for the sweep runner.
 *
 * The runner delivers each completed job to every registered sink in
 * completion order (serialised under the runner's sink lock, so sink
 * implementations need no internal locking). Because completion order
 * varies with the thread count, sinks that promise a stable layout
 * (table, CSV) buffer records and emit sorted by job index at
 * finish(); the JSON-lines sink streams immediately — line order is
 * nondeterministic but line *content* is bit-identical, and each line
 * is flushed so a killed sweep keeps everything it completed: that
 * line is the job's commit point, and the file is the sweep's only
 * resume journal (recoverResults).
 */

#ifndef GDIFF_RUNNER_SINKS_HH
#define GDIFF_RUNNER_SINKS_HH

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "stats/table.hh"
#include "util/json.hh"

namespace gdiff {
namespace runner {

/**
 * Rebuild a JobRecord (spec, index, metrics) from a parsed
 * deterministic-payload object — the exact inverse of
 * JsonlSink::deterministicJson, shared by the serve client and the
 * snapshot reader. Re-rendering the result through deterministicJson
 * reproduces the producing line byte-for-byte (%.17g doubles
 * round-trip exactly). Timing metadata is not part of the payload and
 * is left at defaults.
 *
 * @return true on success; false with @p error (if non-null) naming
 * the missing or malformed field.
 */
bool parseRecordJson(const json::Value &record, JobRecord &out,
                     std::string *error = nullptr);

/**
 * Read back a JSON-lines results file to resume its sweep. Every
 * newline-terminated line is a committed job and must parse; an
 * unterminated last line is a torn write, dropped by truncating the
 * file to its last newline (only once every committed line parsed).
 * A missing file holds no jobs. Records keep their line's index and
 * timing metadata.
 *
 * @return true on success; false with @p error (if non-null) naming
 * the file and the 1-based bad line, or the I/O failure.
 */
bool recoverResults(const std::string &path, std::vector<JobRecord> &out,
                    std::string *error = nullptr);

/** Consumer of completed jobs. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** One job finished. Called in completion order, serialised. */
    virtual void onJob(const JobRecord &record) = 0;

    /**
     * A resumed sweep recovered @p record instead of running it.
     * Called in grid order before any job runs; defaults to onJob.
     */
    virtual void onRecovered(const JobRecord &record) { onJob(record); }

    /** All jobs finished; flush/emit final output. */
    virtual void finish() {}
};

/** Buffers every record in memory, sorted by job index at finish(). */
class CollectingSink : public ResultSink
{
  public:
    void onJob(const JobRecord &record) override;
    void finish() override;

    /** @return records sorted by job index (valid after finish()). */
    const std::vector<JobRecord> &records() const { return recs; }

  private:
    std::vector<JobRecord> recs;
};

/**
 * Renders the sweep as a stats::Table: one row per job (grid order),
 * one column per metric of the first job.
 */
class TableSink : public ResultSink
{
  public:
    /**
     * @param os    destination stream (written at finish()).
     * @param title table caption.
     */
    explicit TableSink(std::ostream &os,
                       std::string title = "sweep results");

    void onJob(const JobRecord &record) override;
    void finish() override;

  private:
    std::ostream &os;
    std::string title;
    std::vector<JobRecord> recs;
};

/**
 * CSV file sink: header = spec columns + metric names + metadata,
 * rows sorted by job index, written at finish().
 */
class CsvSink : public ResultSink
{
  public:
    /** Open @p path for writing (truncates); fatal() on failure. */
    explicit CsvSink(const std::string &path);
    ~CsvSink() override;

    void onJob(const JobRecord &record) override;
    void finish() override;

  private:
    std::string path;
    std::FILE *file = nullptr;
    std::vector<JobRecord> recs;
};

/**
 * JSON-lines sink: one self-describing object per job with the full
 * spec, metrics, and timing metadata. Lines are appended and flushed
 * as jobs complete, making the file crash-durable and the resume
 * journal of the sweep (recoverResults). Recovered records are
 * already in the file, so onRecovered writes nothing.
 */
class JsonlSink : public ResultSink
{
  public:
    /**
     * @param path   output file.
     * @param append open in append mode (resumed sweeps, after
     *               recoverResults) instead of truncating.
     * @param deterministicOnly drop the timing metadata and write only
     *               the deterministic payload, so two runs of the same
     *               grid (any thread count, daemon or in-process) can
     *               be compared with sort + cmp.
     */
    explicit JsonlSink(const std::string &path, bool append = false,
                       bool deterministicOnly = false);
    ~JsonlSink() override;

    void onJob(const JobRecord &record) override;
    void onRecovered(const JobRecord &) override {}
    void finish() override;

    /**
     * @return the deterministic JSON payload for a record — the line
     * written minus the timing metadata. Exposed so tests can compare
     * runs order-independently.
     */
    static std::string deterministicJson(const JobRecord &record);

  private:
    std::FILE *file = nullptr;
    bool deterministicOnly = false;
};

} // namespace runner
} // namespace gdiff

#endif // GDIFF_RUNNER_SINKS_HH
