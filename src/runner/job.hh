/**
 * @file
 * The sweep runner's job model.
 *
 * A JobSpec is a fully declarative description of one independent
 * simulation — everything needed to reconstruct the workload, the
 * predictor or scheme, and the run budget. Declarative specs are what
 * make the runner deterministic: a job's result depends only on its
 * spec, never on which thread ran it or in what order, and a job's
 * key() is a stable identity usable for resume manifests and
 * result-file joins.
 */

#ifndef GDIFF_RUNNER_JOB_HH
#define GDIFF_RUNNER_JOB_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gdiff {
namespace runner {

/** Experiment kind a job runs. */
enum class JobMode {
    Profile, ///< architectural-order value profiling (Fig. 8 style)
    Pipeline ///< full OOO timing run with a VP scheme (§4-§7)
};

/** @return the mode's canonical spelling ("profile" / "pipeline"). */
const char *jobModeName(JobMode mode);

/** Parse a mode name; calls fatal() on anything unrecognised. */
JobMode parseJobMode(const std::string &name);

/**
 * One cell of an experiment grid: a single (workload, predictor or
 * scheme, configuration, budget) simulation.
 */
struct JobSpec
{
    std::string workload = "parser"; ///< kernel name (makeWorkload)
    JobMode mode = JobMode::Profile;
    /// profile mode: predictor name (stride, dfcm, gdiff, ...)
    std::string predictor = "stride";
    /// pipeline mode: scheme name (baseline, l_stride, l_context,
    /// sgvq, hgvq)
    std::string scheme = "baseline";
    unsigned order = 8;          ///< gdiff order / GVQ window
    uint64_t tableEntries = 8192; ///< prediction-table entries; 0 = unlimited
    uint64_t seed = 1;           ///< workload synthesis seed
    uint64_t instructions = 1'000'000; ///< measured instructions
    uint64_t warmup = 100'000;         ///< warmup instructions

    /// @name Sampled-simulation knobs (src/sample/)
    /// With sampleBudget == 0 (the default) the job is a classic
    /// full-trace run and the remaining fields are ignored. With a
    /// budget, only sampleBudget of the `instructions` measured
    /// records are timing-simulated, spread over windows of
    /// sampleWindow records each; the result carries 95% CIs.
    /// @{
    uint64_t sampleBudget = 0;    ///< measured records across windows
    uint64_t sampleWindow = 4096; ///< records per measured window
    uint64_t sampleSeed = 1;      ///< window-selection seed
    /// @}

    /** @return true when this spec requests sampled simulation. */
    bool sampled() const { return sampleBudget != 0; }

    /**
     * Reject every spec runJob() could not run to completion: an
     * unknown workload, predictor or scheme name; a gdiff order
     * outside 1..core::maxOrder (2..16 for gdiff2); a table size that
     * is neither 0 nor a power of two; run lengths that would measure
     * nothing (instructions == 0 or warmup >= instructions); and,
     * when sampling, degenerate window geometry (zero-length windows,
     * a window longer than the measured region, a budget too small
     * for even one window). Calls fatal() naming the job. runJob()
     * validates every spec before executing it.
     */
    void validate() const;

    /**
     * Non-fatal form of validate() for servers admitting untrusted
     * specs. @return true when valid; false with @p error (if
     * non-null) naming the job and the problem.
     */
    bool validateOr(std::string *error) const;

    /**
     * @return the canonical identity string, e.g.
     * "mode=profile workload=mcf predictor=gdiff order=8 table=8192
     *  seed=1 instructions=1000000 warmup=100000".
     * Equal specs produce equal keys; the resume manifest and the
     * structured sinks use it as the join key.
     */
    std::string key() const;

    /** @return a short human label for tables/progress lines, e.g.
     * "mcf/gdiff[o=8,s=1]". */
    std::string label() const;
};

/**
 * Validate a whole sweep before any of it runs (gdiffrun before it
 * starts the pool, gdiffd before it admits a submission).
 * @return true when every job passes JobSpec::validateOr; otherwise
 * false with @p error (if non-null) describing the first bad job.
 */
bool validateJobs(const std::vector<JobSpec> &jobs, std::string *error);

/**
 * Outcome of one job: named metrics plus run metadata.
 *
 * `metrics` (ordered name/value pairs) is the deterministic payload —
 * bit-identical for identical specs regardless of thread count.
 * `wallSeconds` and `instructionsPerSec` are timing metadata and
 * naturally vary run to run.
 */
struct JobResult
{
    std::vector<std::pair<std::string, double>> metrics;
    double wallSeconds = 0.0;
    double instructionsPerSec = 0.0;

    /// @name Trace-cache metadata (timing class, not deterministic)
    /// @{
    /// true when the job replayed a cached trace; false when it ran
    /// (and possibly cached) functional generation itself
    bool traceReplayed = false;
    /// true when this job's trace came from the persistent disk tier
    bool traceFromDisk = false;
    /// wall seconds this job spent materializing the trace (0 when
    /// replaying or when the cache is off)
    double traceGenerateSeconds = 0.0;
    /// @}

    /// @name Obs stage breakdown (timing class; all zero unless
    /// obs::enabled() — see src/obs/obs.hh)
    /// @{
    /// wall seconds draining the trace source (functional generation
    /// on a cache miss, cursor replay on a hit)
    double obsFillSeconds = 0.0;
    /// wall seconds in the simulation loop proper (predictor
    /// predict/update in profile mode, the cycle loop in pipeline
    /// mode)
    double obsSimSeconds = 0.0;
    /// @}

    /** @return the named metric, or @p fallback if absent. */
    double metric(const std::string &name, double fallback = 0.0) const;
};

/** A completed job as delivered to result sinks. */
struct JobRecord
{
    size_t index = 0; ///< position in the expanded grid (stable)
    JobSpec spec;
    JobResult result;
};

} // namespace runner
} // namespace gdiff

#endif // GDIFF_RUNNER_JOB_HH
