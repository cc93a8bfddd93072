/**
 * @file
 * Trace-driven out-of-order superscalar timing model.
 *
 * The model processes the dynamic trace in program order and computes
 * per-instruction dispatch/issue/complete/retire cycles from the
 * machine constraints (paper Table 1): front-end width and I-cache
 * behaviour, branch/indirect misprediction redirects, ROB occupancy,
 * issue bandwidth, operand readiness through registers and memory,
 * and D-cache latency. Predictor training happens in *completion*
 * order via a pending-writeback queue, which is what exposes value
 * delay (Fig. 12) and SGVQ execution variation (Fig. 13) exactly as
 * the paper describes.
 *
 * Value speculation follows the paper's aggressive machine model
 * (§7, after Sazeides' "great latency" model): a confident prediction
 * lets consumers issue one cycle after the producer's dispatch;
 * verification happens when the producer executes; on a value
 * misprediction only the dependent instructions reissue, modelled as
 * operand availability at the producer's completion plus one cycle.
 */

#ifndef GDIFF_PIPELINE_OOO_MODEL_HH
#define GDIFF_PIPELINE_OOO_MODEL_HH

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "pipeline/branch_pred.hh"
#include "pipeline/config.hh"
#include "pipeline/vp_scheme.hh"
#include "stats/counter.hh"
#include "stats/histogram.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace pipeline {

/** Results of one pipeline run. */
struct PipelineStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;

    /// value-delay distribution: producer writebacks between an
    /// instruction's dispatch and its own writeback (paper Fig. 12)
    stats::Histogram valueDelay{64};

    /// confident predictions among *missing* loads (paper §7 notes
    /// these drive mcf's speedup)
    stats::Ratio missLoadCoverage;
    stats::Ratio missLoadAccuracy;

    double dcacheMissRate = 0.0;
    double icacheMissRate = 0.0;
    double branchAccuracy = 0.0;

    /// @name Front-end cycle accounting (approximate attribution)
    /// @{
    uint64_t icacheBubbleCycles = 0;   ///< I-cache miss bubbles
    uint64_t redirectBubbleCycles = 0; ///< mispredict redirects
    uint64_t robStallCycles = 0;       ///< dispatch held by the ROB
    /// @}

    /// copied from the scheme after the run
    stats::Ratio coverage;
    stats::Ratio gatedAccuracy;

    /// @name Invariant checker results (cfg.check.enabled only)
    /// @{
    uint64_t checkViolations = 0;            ///< total violations
    std::vector<std::string> checkReports;   ///< first maxReports
    /// @}
};

/** The timing model. */
class OooPipeline
{
  public:
    /**
     * @param config machine parameters.
     * @param scheme value-speculation scheme (externally owned).
     */
    OooPipeline(const PipelineConfig &config, VpScheme &scheme);

    /**
     * Run the trace through the machine.
     *
     * @param src    dynamic instruction source.
     * @param max_instructions measured instructions.
     * @param warmup instructions executed before measurement starts
     *               (caches/predictors train; stats not recorded).
     * @param measureFromRetire count measured cycles from the retire
     *               watermark of the last warmup instruction instead
     *               of the first measured instruction's dispatch
     *               cycle. The default charges the window the full
     *               dispatch-to-retire latency of its first
     *               instruction — negligible over a long run but a
     *               fixed ~ROB-drain overcount for the short windows
     *               of sampled simulation, whose cycle counts must
     *               tile: summed retire-to-retire windows telescope
     *               to the continuous run's total. No effect when
     *               warmup is 0.
     * @param functionalWarmup records consumed *before* the detailed
     *               warmup with no cycle modelling at all: caches,
     *               the branch predictor, and the VP scheme's tables
     *               train in program order at a fraction of a timed
     *               record's cost. This is the long-history half of
     *               SMARTS-style warming for sampled windows
     *               (src/sample/): structures like a large D-cache
     *               converge over tens of thousands of records, far
     *               more than detailed warmup can affordably replay.
     * @return the collected statistics.
     */
    PipelineStats run(workload::TraceSource &src,
                      uint64_t max_instructions,
                      uint64_t warmup = 0,
                      bool measureFromRetire = false,
                      uint64_t functionalWarmup = 0);

  private:
    /** A producer's writeback, held from dispatch until it drains. */
    struct PendingWriteback
    {
        uint64_t pc = 0;
        int64_t value = 0;
        VpDecision decision;
        uint64_t producedAtDispatch = 0;
        bool measured = false;
    };

    /// (completeCycle, seq): completion-time order, with the sequence
    /// number breaking ties so equal-cycle writebacks drain in
    /// program order
    using PendingKey = std::pair<uint64_t, uint64_t>;

    /** Apply all pending writebacks strictly before the cycle. */
    void drainWritebacksBefore(uint64_t cycle, PipelineStats &stats);

    /** @return first cycle >= earliest with a free issue slot, and
     * consume the slot. */
    uint64_t allocateIssueSlot(uint64_t earliest);

    PipelineConfig cfg;
    VpScheme &scheme;
    BranchPredictor bpred;
    mem::Cache icache;
    mem::Cache dcache;

    // issue-bandwidth ring: slot counts tagged by cycle
    std::vector<uint32_t> issueCount;
    std::vector<uint64_t> issueTag;

    /// Pending writebacks: a min-heap of small keys, with each
    /// payload at index seq & pendingMask of a ring of
    /// nextPow2(robSize) slots. At most robSize producers are ever in
    /// flight (INTERNALS §2), so a live payload is never overwritten.
    std::priority_queue<PendingKey, std::vector<PendingKey>,
                        std::greater<PendingKey>>
        pending;
    std::vector<PendingWriteback> pendingPayload;
    size_t pendingMask;

    uint64_t producerWritebacks = 0; ///< count of applied producer wbs
};

} // namespace pipeline
} // namespace gdiff

#endif // GDIFF_PIPELINE_OOO_MODEL_HH
