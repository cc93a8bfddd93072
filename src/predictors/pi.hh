/**
 * @file
 * Previous-instruction (PI) predictor (Nakra, Gupta & Soffa, HPCA-5):
 * the first-order *global* context-based predictor the paper cites as
 * prior work on global value history (§1-2).
 *
 * Each PC learns the difference between its value and the value of
 * the dynamically preceding value-producing instruction; prediction
 * adds the learned difference to the most recent global value. This
 * is equivalent to a gdiff predictor frozen at distance 0 — a useful
 * ablation point between local predictors and full gdiff.
 */

#ifndef GDIFF_PREDICTORS_PI_HH
#define GDIFF_PREDICTORS_PI_HH

#include "predictors/table.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace predictors {

/** Order-1 global context predictor. */
class PiPredictor : public ValuePredictor
{
  public:
    /** @param entries table entries (0 = unlimited). */
    explicit PiPredictor(size_t entries = 0)
        : table(entries)
    {}

    std::string name() const override { return "pi"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        const Entry *e = table.probe(pc);
        if (!e || !e->seen || !haveGlobal)
            return false;
        value = static_cast<int64_t>(
            static_cast<uint64_t>(lastGlobal) +
            static_cast<uint64_t>(e->diff));
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        Entry &e = table.lookup(pc);
        if (haveGlobal) {
            e.diff = static_cast<int64_t>(
                static_cast<uint64_t>(actual) -
                static_cast<uint64_t>(lastGlobal));
            e.seen = true;
        }
        lastGlobal = actual;
        haveGlobal = true;
    }

  private:
    struct Entry
    {
        int64_t diff = 0;
        bool seen = false;
    };

    PcIndexedTable<Entry> table;
    int64_t lastGlobal = 0;
    bool haveGlobal = false;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_PI_HH
