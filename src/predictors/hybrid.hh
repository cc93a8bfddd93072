/**
 * @file
 * Classic two-component hybrid value predictor with a per-PC chooser
 * (after Wang & Franklin, MICRO-30, and the hybrid schemes the paper
 * cites as [21, 22, 25, 30]): a computational component (local
 * stride) and a context component (DFCM) compete, and a saturating
 * per-PC selector follows whichever has been right more recently.
 *
 * This is the strongest *local* baseline one can assemble from the
 * paper's building blocks — useful for showing that gdiff's global
 * information is not recoverable by merely combining local models.
 */

#ifndef GDIFF_PREDICTORS_HYBRID_HH
#define GDIFF_PREDICTORS_HYBRID_HH

#include <memory>

#include "predictors/fcm.hh"
#include "predictors/stride.hh"
#include "predictors/table.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace predictors {

/** stride + DFCM with a 2-bit per-PC chooser. */
class HybridLocalPredictor : public ValuePredictor
{
  public:
    /**
     * @param entries table entries for the stride component, the
     *        DFCM level 1 and the chooser (0 = unlimited).
     */
    explicit HybridLocalPredictor(size_t entries = 0)
        : stride(entries), dfcm([&] {
              FcmConfig cfg;
              cfg.level1Entries = entries;
              return cfg;
          }()),
          chooser(entries)
    {}

    std::string name() const override { return "hybrid"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        int64_t sv = 0, dv = 0;
        bool have_s = stride.predict(pc, sv);
        bool have_d = dfcm.predict(pc, dv);
        if (!have_s && !have_d)
            return false;
        const Entry *e = chooser.probe(pc);
        bool prefer_dfcm = e && e->select >= 2;
        if (have_d && (prefer_dfcm || !have_s))
            value = dv;
        else
            value = sv;
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        // Train the chooser on component disagreement, the classic
        // rule: move toward the component that was right.
        int64_t sv = 0, dv = 0;
        bool have_s = stride.predict(pc, sv);
        bool have_d = dfcm.predict(pc, dv);
        if (have_s && have_d && (sv == actual) != (dv == actual)) {
            Entry &e = chooser.lookup(pc);
            if (dv == actual) {
                if (e.select < 3)
                    ++e.select;
            } else {
                if (e.select > 0)
                    --e.select;
            }
        }
        stride.update(pc, actual);
        dfcm.update(pc, actual);
    }

  private:
    struct Entry
    {
        uint8_t select = 1; ///< 2-bit: >= 2 prefers DFCM
    };

    StridePredictor stride;
    DfcmPredictor dfcm;
    PcIndexedTable<Entry> chooser;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_HYBRID_HH
