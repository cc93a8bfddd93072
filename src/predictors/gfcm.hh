/**
 * @file
 * Global FCM: the context-based counterpart of gdiff in the paper's
 * §2 taxonomy, which classifies locality along two axes — {local,
 * global} history × {computational, context} model. The paper's
 * cited prior art covers order-1 global context (PI, Nakra et al.)
 * and dataflow-selected context (DDISC, Thomas & Franklin); this
 * class is the straightforward order-n member of that family:
 *
 * The global context is shared machine state: a rolling hash of the
 * last n values produced by *any* instruction. A table indexed by
 * (PC, global context) remembers the value that followed that
 * context last time; seeing the same neighbourhood of values again
 * predicts the same outcome.
 *
 * It completes the predictor zoo so the paper's central claim can be
 * tested in both directions: gdiff's win comes from the global
 * *computational* model, not merely from looking at global history.
 */

#ifndef GDIFF_PREDICTORS_GFCM_HH
#define GDIFF_PREDICTORS_GFCM_HH

#include <vector>

#include "predictors/value_predictor.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/ring_history.hh"

namespace gdiff {
namespace predictors {

/** Configuration of the global-context predictor. */
struct GFcmConfig
{
    unsigned order = 4;             ///< global values hashed (1..8)
    size_t tableEntries = 64 * 1024;///< (PC, context) table, pow2
};

/** Order-n global context-based predictor. */
class GFcmPredictor : public ValuePredictor
{
  public:
    explicit GFcmPredictor(const GFcmConfig &config = GFcmConfig())
        : cfg(config), bits(ceilLog2(cfg.tableEntries)),
          table(cfg.tableEntries), folds(cfg.order)
    {
        GDIFF_ASSERT(isPowerOfTwo(cfg.tableEntries),
                     "gFCM table must be a power of two");
        GDIFF_ASSERT(cfg.order >= 1 && cfg.order <= 8,
                     "gFCM order out of range");
    }

    std::string name() const override { return "gfcm"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        const Entry &e = table[indexOf(pc)];
        if (!e.valid)
            return false;
        value = e.value;
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        Entry &e = table[indexOf(pc)];
        e.value = actual;
        e.valid = true;
        // The global context advances with *every* produced value.
        pushContext(static_cast<uint16_t>(
            mix64(static_cast<uint64_t>(actual)) & 0xffff));
    }

  private:
    struct Entry
    {
        int64_t value = 0;
        bool valid = false;
    };

    size_t
    indexOf(uint64_t pc) const
    {
        return static_cast<size_t>(
            (mix64(pc >> 2) ^ mix64(contextHash)) & mask(bits));
    }

    /**
     * Push one folded value into the global window and rebuild the
     * rolling hash from the retained folds (never-pushed slots read
     * as 0 — exactly the fold of the value-initialised history the
     * hash used to be built from, since mix64(0) == 0).
     */
    void
    pushContext(uint16_t fold)
    {
        folds.push(fold);
        contextHash = 0;
        for (unsigned k = 0; k < cfg.order; ++k)
            contextHash = (contextHash << 16) | folds[k];
    }

    GFcmConfig cfg;
    unsigned bits;
    std::vector<Entry> table;
    RingHistory<uint16_t> folds;
    uint64_t contextHash = 0;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_GFCM_HH
