/**
 * @file
 * Failing-input minimization and repro artifacts.
 *
 * shrinkStream() is classic delta debugging (ddmin): given a stream a
 * predicate marks as failing, remove progressively finer-grained
 * chunks as long as the predicate keeps failing. The predicate must
 * be self-contained — construct *fresh* predictor state on every
 * call — because each trial replays a different stream from scratch.
 *
 * Minimized streams are persisted as trace files so any trace
 * consumer (gdiffrun --trace, the profile drivers) can replay them:
 * each (pc, value) record becomes an Li instruction writing t0, which
 * producesValue() and therefore reaches the predictors unchanged.
 */

#ifndef GDIFF_CHECK_SHRINK_HH
#define GDIFF_CHECK_SHRINK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/differ.hh"
#include "workload/trace_io.hh"

namespace gdiff {
namespace check {

/** Returns true when the candidate stream still triggers the bug. */
using FailPredicate =
    std::function<bool(const std::vector<FuzzRecord> &)>;

/** Knobs for shrinkStream(). */
struct ShrinkConfig
{
    /// hard cap on predicate evaluations (each replays a stream)
    uint64_t maxTrials = 20'000;
};

/**
 * Minimize @p stream with delta debugging.
 *
 * @return a 1-minimal-ish subsequence that still satisfies
 * @p stillFails; returns @p stream unchanged if it does not fail in
 * the first place.
 */
std::vector<FuzzRecord>
shrinkStream(const std::vector<FuzzRecord> &stream,
             const FailPredicate &stillFails,
             const ShrinkConfig &cfg = {});

/** @return the canonical artifact filename for a pair and seed. */
std::string reproArtifactName(const std::string &pairName,
                              uint64_t seed);

/** Write @p stream to @p path as a trace file; fatal() on failure. */
void writeReproArtifact(const std::string &path,
                        const std::vector<FuzzRecord> &stream);

/**
 * Read a repro artifact back as a (pc, value) stream. Any trace file
 * works: only value-producing records are kept. Artifacts are
 * untrusted (gdifffuzz --replay takes arbitrary user paths), so a
 * missing, corrupt, truncated, or wrong-version file comes back as
 * the TraceIoResult instead of fatal().
 *
 * @return true with the records in @p stream; false with @p result
 * (if non-null) holding the typed status and message.
 */
bool readReproArtifactOr(const std::string &path,
                         std::vector<FuzzRecord> &stream,
                         workload::TraceIoResult *result = nullptr);

} // namespace check
} // namespace gdiff

#endif // GDIFF_CHECK_SHRINK_HH
