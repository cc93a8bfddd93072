/**
 * @file
 * Two-term gdiff: a step from the paper's Equation 2 toward its
 * Equation 1 (the general linear combination over global history).
 *
 * The paper (§2) formalises global computational locality as
 *     x_N = a_{N-1} x_{N-1} + ... + a_1 x_1 + a_0        (Eq. 1)
 * and exploits only the single-term special case
 *     x_N = x_{N-k} + a_0                                (Eq. 2)
 * noting that the general form "is not easy due to the mathematical
 * nature of the problem and the hardware complexity". This class
 * implements the next-cheapest useful slice: coefficient vectors with
 * two non-zero ±1 entries,
 *     x_N = x_{N-j} + x_{N-k} + a_0   or
 *     x_N = x_{N-j} - x_{N-k} + a_0,
 * which captures the "sub r, ra, rd" pattern of the paper's Fig. 3 —
 * a destination computed from *two* recent global values, exactly
 * predictable even when both inputs are individually noisy.
 *
 * Learning mirrors gdiff: on each update the candidate residuals
 * a_0 = x - (w[j] ± w[k]) are computed for every pair and compared
 * with the previous update's residuals; a repeat selects that pair.
 * Single-term (Eq. 2) matches take priority — they are cheaper and
 * strictly more robust — so this predictor is a superset of gdiff.
 */

#ifndef GDIFF_CORE_GDIFF2_HH
#define GDIFF_CORE_GDIFF2_HH

#include <cstdint>
#include <vector>

#include "core/gvq.hh"
#include "predictors/table.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace core {

/// Supported gdiff2 orders: pair storage is quadratic in the order.
inline constexpr unsigned gdiff2MinOrder = 2;
inline constexpr unsigned gdiff2MaxOrder = 16;

/** Configuration of the two-term predictor. */
struct GDiff2Config
{
    /// window size; pair storage is O(order^2), so keep modest
    unsigned order = 8;
    /// prediction-table entries; 0 = unlimited
    size_t tableEntries = 0;
    bool hashIndex = false;
};

/** The two-term global stride predictor (Eq. 1 restricted to two
 * ±1 coefficients). */
class GDiff2Predictor : public predictors::ValuePredictor
{
  public:
    explicit GDiff2Predictor(const GDiff2Config &config = GDiff2Config());

    std::string name() const override { return "gdiff2"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;

    /**
     * Fused batch over the internal queue: one linearization of the
     * queue plus the batch's actuals replaces the two per-record ring
     * walks (predict + train each rebuilt the visible window).
     */
    void predictUpdateBatch(const uint64_t *pcs,
                            const int64_t *actuals, uint32_t n,
                            predictors::PredictionBatch &out) override;

    /// @name External-window interface (mirrors GDiffPredictor)
    /// @{
    bool predictWithWindow(uint64_t pc, const ValueWindow &window,
                           int64_t &value);
    void trainWithWindow(uint64_t pc, const ValueWindow &window,
                         int64_t actual);
    /// @}

    /** @return how often the selected form was a pair (vs single). */
    double pairSelectionRate() const;

  private:
    /// selected functional form for a table entry
    enum class Form : uint8_t { None, Single, PairAdd, PairSub };

    struct Entry
    {
        /// residuals x - w[i] from the previous update
        std::vector<int64_t> single;
        /// residuals x - (w[j] + w[k]), j < k, row-major triangular
        std::vector<int64_t> pairAdd;
        /// residuals x - (w[j] - w[k]), j != k, row-major full
        std::vector<int64_t> pairSub;
        uint8_t count = 0; ///< valid window size at last update
        Form form = Form::None;
        uint8_t j = 0;
        uint8_t k = 0;
    };

    size_t addIndex(unsigned j, unsigned k) const; ///< j < k
    size_t subIndex(unsigned j, unsigned k) const; ///< j != k

    GDiff2Config cfg;
    predictors::PcIndexedTable<Entry> table;
    GlobalValueQueue gvq;
    ValueWindow window; ///< refilled per scalar query and batch lane
    uint64_t singleSelections = 0;
    uint64_t pairSelections = 0;
    std::vector<int64_t> extScratch; ///< batch: linearized stream
};

} // namespace core
} // namespace gdiff

#endif // GDIFF_CORE_GDIFF2_HH
