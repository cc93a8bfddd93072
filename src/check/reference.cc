#include "check/reference.hh"

#include "core/gdiff.hh"
#include "core/gdiff2.hh"
#include "predictors/fcm.hh"
#include "predictors/gfcm.hh"
#include "predictors/hybrid.hh"
#include "predictors/last_value.hh"
#include "predictors/pi.hh"
#include "predictors/stride.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace check {

namespace {

/** Two's-complement wrapping add (the predictors' arithmetic). */
int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

/** Two's-complement wrapping subtract. */
int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

/**
 * The context fold both FCM variants specify: each item contributes
 * its low 16 hash bits, oldest first, truncated to `order` items.
 */
uint64_t
foldRawHistory(const std::deque<int64_t> &items, unsigned order)
{
    uint64_t h = 0;
    for (int64_t v : items) {
        h = ((h << 16) | (mix64(static_cast<uint64_t>(v)) & 0xffff)) &
            mask(16 * order);
    }
    return h;
}

} // anonymous namespace

// ---------------------------------------------------- RefLastValue

bool
RefLastValue::predict(uint64_t pc, int64_t &value)
{
    auto it = last.find(pc);
    if (it == last.end())
        return false;
    value = it->second;
    return true;
}

void
RefLastValue::update(uint64_t pc, int64_t actual)
{
    last[pc] = actual;
}

// ------------------------------------------------- RefStride2Delta

bool
RefStride2Delta::predict(uint64_t pc, int64_t &value)
{
    auto it = state.find(pc);
    if (it == state.end())
        return false;
    value = wrapAdd(it->second.last, it->second.stride);
    return true;
}

void
RefStride2Delta::update(uint64_t pc, int64_t actual)
{
    auto it = state.find(pc);
    if (it == state.end()) {
        state[pc].last = actual;
        return;
    }
    State &s = it->second;
    int64_t new_stride = wrapSub(actual, s.last);
    // 2-delta rule: the predicted stride only changes once the same
    // new stride has been seen twice in a row.
    if (new_stride == s.lastStride)
        s.stride = new_stride;
    s.lastStride = new_stride;
    s.last = actual;
}

// ----------------------------------------------------------- RefFcm

RefFcm::RefFcm(unsigned order, uint64_t level2_entries)
    : order(order), level2Entries(level2_entries)
{
    GDIFF_ASSERT(order >= 1 && order <= 4,
                 "FCM oracle order out of range");
    GDIFF_ASSERT(isPowerOfTwo(level2Entries),
                 "FCM oracle level-2 size must be a power of two");
}

uint64_t
RefFcm::slotOf(uint64_t pc, const State &s) const
{
    uint64_t folded = foldRawHistory(s.history, order);
    return (mix64(folded) ^ mix64(pc)) & mask(ceilLog2(level2Entries));
}

bool
RefFcm::predict(uint64_t pc, int64_t &value)
{
    auto it = level1.find(pc);
    if (it == level1.end() || it->second.seen < order)
        return false;
    auto l2 = level2.find(slotOf(pc, it->second));
    if (l2 == level2.end())
        return false;
    value = l2->second;
    return true;
}

void
RefFcm::update(uint64_t pc, int64_t actual)
{
    State &s = level1[pc];
    // Once the history is warm, remember the value that followed it.
    if (s.seen >= order)
        level2[slotOf(pc, s)] = actual;
    s.history.push_back(actual);
    if (s.history.size() > order)
        s.history.pop_front();
    ++s.seen;
}

// ---------------------------------------------------------- RefGFcm

RefGFcm::RefGFcm(unsigned order, uint64_t table_entries)
    : order(order), tableEntries(table_entries)
{
    GDIFF_ASSERT(order >= 1 && order <= 8,
                 "gFCM oracle order out of range");
    GDIFF_ASSERT(isPowerOfTwo(tableEntries),
                 "gFCM oracle table size must be a power of two");
}

uint64_t
RefGFcm::slotOf(uint64_t pc) const
{
    // The context covers exactly `order` positions; positions older
    // than anything yet produced read as zero (tables power up
    // zeroed), matching the production predictor's ring semantics.
    uint64_t ctx = 0;
    for (unsigned k = 0; k < order; ++k) {
        int64_t v = k < global.size() ? global[global.size() - 1 - k]
                                      : 0;
        ctx = (ctx << 16) |
              (mix64(static_cast<uint64_t>(v)) & 0xffff);
    }
    return (mix64(pc >> 2) ^ mix64(ctx)) &
           mask(ceilLog2(tableEntries));
}

bool
RefGFcm::predict(uint64_t pc, int64_t &value)
{
    auto it = table.find(slotOf(pc));
    if (it == table.end())
        return false;
    value = it->second;
    return true;
}

void
RefGFcm::update(uint64_t pc, int64_t actual)
{
    // Store under the *current* context, then advance the global
    // history — the next prediction sees the new neighbourhood.
    table[slotOf(pc)] = actual;
    global.push_back(actual);
    if (global.size() > order)
        global.pop_front();
}

// --------------------------------------------------------- RefGDiff

RefGDiff::RefGDiff(unsigned order, unsigned delay)
    : order(order), delay(delay)
{
    GDIFF_ASSERT(order >= 1 && order <= core::maxOrder,
                 "gdiff oracle order out of range");
}

std::vector<int64_t>
RefGDiff::visibleWindow() const
{
    // values[k] is the value produced delay+k+1 productions ago: the
    // newest `delay` values are hidden (§3.1's value-delay model).
    std::vector<int64_t> w;
    size_t avail = queue.size() > delay ? queue.size() - delay : 0;
    size_t count = avail < order ? avail : order;
    for (size_t k = 0; k < count; ++k)
        w.push_back(queue[queue.size() - 1 - delay - k]);
    return w;
}

bool
RefGDiff::predict(uint64_t pc, int64_t &value)
{
    auto it = entries.find(pc);
    if (it == entries.end() || it->second.distance < 0)
        return false;
    const Entry &e = it->second;
    std::vector<int64_t> w = visibleWindow();
    size_t k = static_cast<size_t>(e.distance);
    if (k >= w.size() || k >= e.diffs.size())
        return false;
    value = wrapAdd(w[k], e.diffs[k]);
    return true;
}

void
RefGDiff::update(uint64_t pc, int64_t actual)
{
    Entry &e = entries[pc];
    std::vector<int64_t> w = visibleWindow();

    // Fresh differences between the produced value and the window.
    std::vector<int64_t> cur;
    cur.reserve(w.size());
    for (int64_t v : w)
        cur.push_back(wrapSub(actual, v));

    // Select the nearest position whose fresh difference matches the
    // stored one; on no match the distance is left alone (paper §3).
    size_t compare = cur.size() < e.diffs.size() ? cur.size()
                                                 : e.diffs.size();
    for (size_t i = 0; i < compare; ++i) {
        if (cur[i] == e.diffs[i]) {
            e.distance = static_cast<int>(i);
            break;
        }
    }
    e.diffs = std::move(cur);

    queue.push_back(actual);
    // Values older than the deepest window position can never be
    // seen again; dropping them keeps the oracle O(order) per record.
    while (queue.size() > static_cast<size_t>(order) + delay)
        queue.pop_front();
}

// ------------------------------------------------------- pair zoo

const std::vector<std::string> &
pairNames()
{
    static const std::vector<std::string> names = {
        "last_value", "stride", "fcm", "gfcm", "gdiff"};
    return names;
}

PredictorPair
makePair(const std::string &name, unsigned order)
{
    PredictorPair pair;
    pair.name = name;
    if (name == "last_value") {
        pair.production =
            std::make_unique<predictors::LastValuePredictor>(0);
        pair.oracle = std::make_unique<RefLastValue>();
    } else if (name == "stride") {
        pair.production =
            std::make_unique<predictors::StridePredictor>(0);
        pair.oracle = std::make_unique<RefStride2Delta>();
    } else if (name == "fcm") {
        unsigned o = order ? order : 3;
        predictors::FcmConfig cfg;
        cfg.level1Entries = 0;
        cfg.order = o;
        pair.production =
            std::make_unique<predictors::FcmPredictor>(cfg);
        pair.oracle = std::make_unique<RefFcm>(o, cfg.level2Entries);
    } else if (name == "gfcm") {
        unsigned o = order ? order : 4;
        predictors::GFcmConfig cfg;
        cfg.order = o;
        pair.production =
            std::make_unique<predictors::GFcmPredictor>(cfg);
        pair.oracle = std::make_unique<RefGFcm>(o, cfg.tableEntries);
    } else if (name == "gdiff") {
        unsigned o = order ? order : 8;
        core::GDiffConfig cfg;
        cfg.order = o;
        cfg.tableEntries = 0;
        pair.production = std::make_unique<core::GDiffPredictor>(cfg);
        pair.oracle = std::make_unique<RefGDiff>(o, cfg.valueDelay);
    } else {
        fatal("unknown predictor pair '%s' (expected one of "
              "last_value, stride, fcm, gfcm, gdiff)",
              name.c_str());
    }
    return pair;
}

const std::vector<std::string> &
batchFamilyNames()
{
    static const std::vector<std::string> names = {
        "last_value", "last_n", "stride", "pi",     "fcm",
        "dfcm",       "gfcm",   "hybrid", "gdiff",  "gdiff2"};
    return names;
}

std::unique_ptr<predictors::ValuePredictor>
makeProduction(const std::string &name, unsigned order)
{
    if (name == "last_value")
        return std::make_unique<predictors::LastValuePredictor>(0);
    if (name == "last_n")
        return std::make_unique<predictors::LastNValuePredictor>(4, 0);
    if (name == "stride")
        return std::make_unique<predictors::StridePredictor>(0);
    if (name == "pi")
        return std::make_unique<predictors::PiPredictor>(0);
    if (name == "fcm" || name == "dfcm") {
        predictors::FcmConfig cfg;
        cfg.level1Entries = 0;
        cfg.order = order ? order : 3;
        if (name == "dfcm")
            return std::make_unique<predictors::DfcmPredictor>(cfg);
        return std::make_unique<predictors::FcmPredictor>(cfg);
    }
    if (name == "gfcm") {
        predictors::GFcmConfig cfg;
        cfg.order = order ? order : 4;
        return std::make_unique<predictors::GFcmPredictor>(cfg);
    }
    if (name == "hybrid")
        return std::make_unique<predictors::HybridLocalPredictor>(0);
    if (name == "gdiff") {
        core::GDiffConfig cfg;
        cfg.order = order ? order : 8;
        cfg.tableEntries = 0;
        return std::make_unique<core::GDiffPredictor>(cfg);
    }
    if (name == "gdiff2") {
        core::GDiff2Config cfg;
        cfg.order = order ? order : 8;
        cfg.tableEntries = 0;
        return std::make_unique<core::GDiff2Predictor>(cfg);
    }
    fatal("unknown batch family '%s'", name.c_str());
    return nullptr;
}

bool
checkOrder(const std::string &name, unsigned order, std::string &error)
{
    unsigned lo = 1, hi = 0; // hi == 0: the family ignores the order
    if (name == "fcm" || name == "dfcm") {
        hi = 4;
    } else if (name == "gfcm") {
        hi = 8;
    } else if (name == "gdiff") {
        hi = core::maxOrder;
    } else if (name == "gdiff2") {
        lo = core::gdiff2MinOrder;
        hi = core::gdiff2MaxOrder;
    }
    if (order == 0 || hi == 0 || (order >= lo && order <= hi))
        return true;
    error = "order " + std::to_string(order) + " is out of range " +
            std::to_string(lo) + ".." + std::to_string(hi) + " for " +
            name;
    return false;
}

} // namespace check
} // namespace gdiff
