/**
 * @file
 * Declarative experiment grids.
 *
 * A SweepSpec holds one value list per experiment axis — workloads,
 * predictors (profile mode) or schemes (pipeline mode), gdiff orders,
 * table sizes, seeds, instruction windows — and expands the cartesian
 * product into a deterministic, stably ordered vector of JobSpecs.
 * The expansion order is part of the contract: job index i always
 * names the same grid cell, across runs and thread counts, which is
 * what lets sinks sort by it. Resuming matches jobs by key, not by
 * index.
 *
 * Grids can also be parsed from the compact CLI syntax used by
 * gdiffrun:
 *
 *   workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;order=4,8
 */

#ifndef GDIFF_RUNNER_SWEEP_SPEC_HH
#define GDIFF_RUNNER_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/job.hh"

namespace gdiff {
namespace runner {

/** A cartesian experiment grid; empty axes fall back to defaults. */
struct SweepSpec
{
    JobMode mode = JobMode::Profile;
    /// kernel names; empty = the ten paper workloads
    std::vector<std::string> workloads;
    /// profile-mode predictors; empty = {"stride"}
    std::vector<std::string> predictors;
    /// pipeline-mode schemes; empty = {"baseline"}
    std::vector<std::string> schemes;
    /// gdiff orders / GVQ windows; empty = {8}
    std::vector<unsigned> orders;
    /// table sizes (0 = unlimited); empty = {8192}
    std::vector<uint64_t> tables;
    /// workload synthesis seeds; empty = {1}
    std::vector<uint64_t> seeds;
    /// measured-instruction budgets; empty = {defaultInstructions}
    std::vector<uint64_t> instructionWindows;

    uint64_t defaultInstructions = 1'000'000;
    uint64_t warmup = 100'000;

    /// @name sampled-simulation knobs applied to every expanded job
    /// (single-valued, like warmup — see JobSpec); budget 0 = off
    /// @{
    uint64_t sampleBudget = 0;
    uint64_t sampleWindow = 4096;
    uint64_t sampleSeed = 1;
    /// @}

    /** @return number of jobs expand() will produce. */
    size_t jobCount() const;

    /**
     * Expand the grid into jobs, ordered with workload as the
     * outermost axis, then predictor/scheme, order, table, seed,
     * instruction window innermost.
     */
    std::vector<JobSpec> expand() const;

    /**
     * Parse the `key=v1,v2,...;key=...` grid syntax.
     *
     * Keys: workload, predictor, scheme, order, table, seed,
     * instructions, mode (single-valued). `scheme=` implies pipeline
     * mode unless `mode=` says otherwise. Calls fatal() on unknown
     * keys, malformed numbers, or empty value lists.
     */
    static SweepSpec parseGrid(const std::string &grid);

    /**
     * Non-fatal form of parseGrid() for servers parsing untrusted
     * grids: a malformed grid must produce an error response, not
     * take the daemon down.
     *
     * @return true and fill @p out on success; false with @p error
     * (if non-null) describing the first problem.
     */
    static bool tryParseGrid(const std::string &grid, SweepSpec &out,
                             std::string *error);
};

} // namespace runner
} // namespace gdiff

#endif // GDIFF_RUNNER_SWEEP_SPEC_HH
