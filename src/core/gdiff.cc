#include "core/gdiff.hh"

#include "util/simd.hh"

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

GDiffPredictor::GDiffPredictor(const GDiffConfig &config)
    : cfg(config), table(cfg.tableEntries, cfg.hashIndex),
      gvq(cfg.order, cfg.valueDelay)
{
}

bool
GDiffPredictor::predictWithWindow(uint64_t pc, const ValueWindow &window,
                                  int64_t &value)
{
    const Entry *e = table.probe(pc);
    if (!e || e->distance < 0)
        return false;
    unsigned k = static_cast<unsigned>(e->distance);
    if (k >= window.count || k >= e->diffCount)
        return false;
    value = wrapAdd(window.values[k], e->diffs[k]);
    return true;
}

void
GDiffPredictor::trainWithWindow(uint64_t pc, const ValueWindow &window,
                                int64_t actual)
{
    Entry &e = table.lookup(pc);

    // Compute the fresh differences against the visible window and
    // detect a match against the stored ones, selecting the closest
    // matching distance (paper Fig. 5's parallel comparators with
    // nearest-first priority). Either way the fresh differences
    // replace the stored ones (paper §3: on no match the distance
    // field is left alone). Stored diffs past diffCount are never
    // read, so only the live prefix is written.
    const unsigned n = window.count;
    const unsigned compare = n < e.diffCount ? n : e.diffCount;
    int match = -1;
    for (unsigned i = 0; i < n; ++i) {
        int64_t d = wrapSub(actual, window.values[i]);
        if (match < 0 && i < compare && d == e.diffs[i])
            match = static_cast<int>(i);
        e.diffs[i] = d;
    }
    if (match >= 0)
        e.distance = static_cast<int16_t>(match);
    e.diffCount = static_cast<uint8_t>(n);
}

bool
GDiffPredictor::predict(uint64_t pc, int64_t &value)
{
    gvq.visibleWindow(window);
    return predictWithWindow(pc, window, value);
}

void
GDiffPredictor::update(uint64_t pc, int64_t actual)
{
    gvq.visibleWindow(window);
    trainWithWindow(pc, window, actual);
    gvq.push(actual);
}

void
GDiffPredictor::predictUpdateBatch(const uint64_t *pcs,
                                   const int64_t *actuals, uint32_t n,
                                   predictors::PredictionBatch &out)
{
    out.reset(n);
    const unsigned order = cfg.order;
    const unsigned delay = cfg.valueDelay;

    // Linearize the stream: the queue's retained history (oldest
    // first), then the batch's own actuals. Within the batch, lane
    // l's visible window is the `order` stream values ending
    // delay+1 before its own position — plain pointer arithmetic,
    // where the scalar path re-walks the ring per record:
    // window value k lives at wtop[-k] with wtop = ext+h+l-1-delay.
    extScratch.resize(static_cast<size_t>(order) + delay + n);
    const size_t h = gvq.copyRecent(extScratch.data());
    for (uint32_t l = 0; l < n; ++l)
        extScratch[h + l] = actuals[l];
    const int64_t *const ext = extScratch.data();

    std::array<int64_t, maxOrder> cur;
    for (uint32_t l = 0; l < n; ++l) {
        const int64_t actual = actuals[l];
        const int64_t avail =
            static_cast<int64_t>(h) + l - static_cast<int64_t>(delay);
        const unsigned wcount =
            avail <= 0 ? 0u
                       : (avail < static_cast<int64_t>(order)
                              ? static_cast<unsigned>(avail)
                              : order);
        Entry &e = table.lookup(pcs[l]);
        if (wcount > 0) {
            const int64_t *wtop = ext + (h + l - 1 - delay);
            if (e.distance >= 0) {
                unsigned k = static_cast<unsigned>(e.distance);
                if (k < wcount && k < e.diffCount) {
                    out.predicted[l] = 1;
                    out.value[l] = wrapAdd(
                        wtop[-static_cast<ptrdiff_t>(k)], e.diffs[k]);
                }
            }
            simd::diffAgainstWindow(actual, wtop, cur.data(), wcount);
            unsigned compare =
                wcount < e.diffCount ? wcount : e.diffCount;
            int match =
                simd::firstEqual(cur.data(), e.diffs.data(), compare);
            if (match >= 0)
                e.distance = static_cast<int16_t>(match);
            for (unsigned i = 0; i < wcount; ++i)
                e.diffs[i] = cur[i];
        }
        // Stored diffs beyond diffCount are never read, so only the
        // live prefix needs rewriting.
        e.diffCount = static_cast<uint8_t>(wcount);
    }

    for (uint32_t l = 0; l < n; ++l)
        gvq.push(actuals[l]);
}

} // namespace core
} // namespace gdiff
