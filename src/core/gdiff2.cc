#include "core/gdiff2.hh"

#include "util/logging.hh"

namespace gdiff {
namespace core {

namespace {

int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

} // anonymous namespace

GDiff2Predictor::GDiff2Predictor(const GDiff2Config &config)
    : cfg(config), table(cfg.tableEntries, cfg.hashIndex),
      gvq(cfg.order, 0)
{
    GDIFF_ASSERT(cfg.order >= gdiff2MinOrder &&
                     cfg.order <= gdiff2MaxOrder,
                 "gdiff2 order %u out of range (pair storage is "
                 "quadratic)",
                 cfg.order);
}

size_t
GDiff2Predictor::addIndex(unsigned j, unsigned k) const
{
    // triangular index for j < k over [0, order)
    GDIFF_ASSERT(j < k && k < cfg.order, "bad pair (%u, %u)", j, k);
    return static_cast<size_t>(j) * cfg.order -
           static_cast<size_t>(j) * (j + 1) / 2 + (k - j - 1);
}

size_t
GDiff2Predictor::subIndex(unsigned j, unsigned k) const
{
    // full (ordered) index for j != k over [0, order)
    GDIFF_ASSERT(j != k && j < cfg.order && k < cfg.order,
                 "bad pair (%u, %u)", j, k);
    size_t col = k > j ? k - 1 : k;
    return static_cast<size_t>(j) * (cfg.order - 1) + col;
}

bool
GDiff2Predictor::predictWithWindow(uint64_t pc,
                                   const ValueWindow &window,
                                   int64_t &value)
{
    const Entry *e = table.probe(pc);
    if (!e || e->form == Form::None)
        return false;
    switch (e->form) {
      case Form::Single:
        if (e->j >= window.count || e->single.empty())
            return false;
        value = wrapAdd(window.values[e->j],
                        e->single[e->j]);
        return true;
      case Form::PairAdd:
        if (e->k >= window.count || e->pairAdd.empty())
            return false;
        value = wrapAdd(wrapAdd(window.values[e->j],
                                window.values[e->k]),
                        e->pairAdd[addIndex(e->j, e->k)]);
        return true;
      case Form::PairSub:
        if (e->j >= window.count || e->k >= window.count ||
            e->pairSub.empty()) {
            return false;
        }
        value = wrapAdd(wrapSub(window.values[e->j],
                                window.values[e->k]),
                        e->pairSub[subIndex(e->j, e->k)]);
        return true;
      case Form::None:
        break;
    }
    return false;
}

void
GDiff2Predictor::trainWithWindow(uint64_t pc, const ValueWindow &window,
                                 int64_t actual)
{
    Entry &e = table.lookup(pc);
    unsigned n = window.count < cfg.order ? window.count : cfg.order;

    // Fresh residuals.
    std::vector<int64_t> cur_single(cfg.order, 0);
    std::vector<int64_t> cur_add(
        static_cast<size_t>(cfg.order) * (cfg.order - 1) / 2, 0);
    std::vector<int64_t> cur_sub(
        static_cast<size_t>(cfg.order) * (cfg.order - 1), 0);
    for (unsigned i = 0; i < n; ++i)
        cur_single[i] = wrapSub(actual, window.values[i]);
    for (unsigned j = 0; j < n; ++j) {
        for (unsigned k = 0; k < n; ++k) {
            if (j < k) {
                cur_add[addIndex(j, k)] = wrapSub(
                    actual, wrapAdd(window.values[j],
                                    window.values[k]));
            }
            if (j != k) {
                cur_sub[subIndex(j, k)] = wrapSub(
                    actual, wrapSub(window.values[j],
                                    window.values[k]));
            }
        }
    }

    // Match against the previous residuals: singles first (they are
    // cheaper and strictly more robust), then subtraction pairs, then
    // addition pairs; nearest-first within each class.
    unsigned compare = n < e.count ? n : e.count;
    bool matched = false;
    if (!e.single.empty()) {
        for (unsigned i = 0; i < compare && !matched; ++i) {
            if (cur_single[i] == e.single[i]) {
                e.form = Form::Single;
                e.j = static_cast<uint8_t>(i);
                e.k = 0;
                matched = true;
                ++singleSelections;
            }
        }
        for (unsigned j = 0; j < compare && !matched; ++j) {
            for (unsigned k = 0; k < compare && !matched; ++k) {
                if (j == k)
                    continue;
                size_t idx = subIndex(j, k);
                if (cur_sub[idx] == e.pairSub[idx]) {
                    e.form = Form::PairSub;
                    e.j = static_cast<uint8_t>(j);
                    e.k = static_cast<uint8_t>(k);
                    matched = true;
                    ++pairSelections;
                }
            }
        }
        for (unsigned j = 0; j + 1 < compare && !matched; ++j) {
            for (unsigned k = j + 1; k < compare && !matched; ++k) {
                size_t idx = addIndex(j, k);
                if (cur_add[idx] == e.pairAdd[idx]) {
                    e.form = Form::PairAdd;
                    e.j = static_cast<uint8_t>(j);
                    e.k = static_cast<uint8_t>(k);
                    matched = true;
                    ++pairSelections;
                }
            }
        }
    }
    // As with gdiff, the fresh residuals replace the stored ones and
    // an unmatched update leaves the selected form alone.
    e.single = std::move(cur_single);
    e.pairAdd = std::move(cur_add);
    e.pairSub = std::move(cur_sub);
    e.count = static_cast<uint8_t>(n);
}

bool
GDiff2Predictor::predict(uint64_t pc, int64_t &value)
{
    gvq.visibleWindow(window);
    return predictWithWindow(pc, window, value);
}

void
GDiff2Predictor::update(uint64_t pc, int64_t actual)
{
    gvq.visibleWindow(window);
    trainWithWindow(pc, window, actual);
    gvq.push(actual);
}

void
GDiff2Predictor::predictUpdateBatch(const uint64_t *pcs,
                                    const int64_t *actuals, uint32_t n,
                                    predictors::PredictionBatch &out)
{
    out.reset(n);
    extScratch.resize(static_cast<size_t>(cfg.order) + n);
    const size_t h = gvq.copyRecent(extScratch.data());
    for (uint32_t l = 0; l < n; ++l)
        extScratch[h + l] = actuals[l];
    const int64_t *const ext = extScratch.data();

    ValueWindow &w = window;
    for (uint32_t l = 0; l < n; ++l) {
        const size_t have = h + l;
        w.count = static_cast<unsigned>(
            have < cfg.order ? have : cfg.order);
        if (w.count > 0) {
            const int64_t *wtop = ext + (h + l - 1);
            for (unsigned k = 0; k < w.count; ++k)
                w.values[k] = wtop[-static_cast<ptrdiff_t>(k)];
        }
        int64_t v = 0;
        if (predictWithWindow(pcs[l], w, v)) {
            out.predicted[l] = 1;
            out.value[l] = v;
        }
        trainWithWindow(pcs[l], w, actuals[l]);
    }

    for (uint32_t l = 0; l < n; ++l)
        gvq.push(actuals[l]);
}

double
GDiff2Predictor::pairSelectionRate() const
{
    uint64_t total = singleSelections + pairSelections;
    return total == 0 ? 0.0
                      : static_cast<double>(pairSelections) /
                            static_cast<double>(total);
}

} // namespace core
} // namespace gdiff
