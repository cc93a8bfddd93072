#include "pipeline/vp_scheme.hh"

namespace gdiff {
namespace pipeline {

// ------------------------------------------------------------ VpScheme

VpScheme::VpScheme(const predictors::ConfidenceConfig &conf_cfg)
    : conf(conf_cfg)
{
}

VpDecision
VpScheme::predictAtDispatch(uint64_t pc)
{
    VpDecision d;
    uint32_t &outstanding = inflight.lookup(pc);
    d.predicted = doPredict(pc, outstanding, d.value, d.token);
    d.confident = d.predicted && conf.confident(pc);
    cov.record(d.confident);
    ++outstanding;
    return d;
}

void
VpScheme::writeback(uint64_t pc, const VpDecision &d, int64_t actual)
{
    if (uint32_t &outstanding = inflight.lookup(pc); outstanding > 0)
        --outstanding;
    if (d.predicted) {
        bool correct = (d.value == actual);
        accRaw.record(correct);
        if (d.confident)
            accGated.record(correct);
        conf.train(pc, correct);
    }
    doWriteback(pc, d, actual);
}

void
VpScheme::writebackBatch(const WritebackItem *items, uint32_t n)
{
    // Phase 1 — bookkeeping. Within a drain batch nothing reads the
    // in-flight counts or the confidence table (both are next read at
    // predictAtDispatch), so applying every item's bookkeeping before
    // any scheme training is indistinguishable from the interleaved
    // scalar order.
    for (uint32_t l = 0; l < n; ++l) {
        const WritebackItem &it = items[l];
        if (uint32_t &outstanding = inflight.lookup(it.pc);
            outstanding > 0)
            --outstanding;
        if (it.decision.predicted) {
            bool correct = (it.decision.value == it.actual);
            accRaw.record(correct);
            if (it.decision.confident)
                accGated.record(correct);
            conf.train(it.pc, correct);
        }
    }
    // Phase 2 — scheme training, in completion order.
    doWritebackBatch(items, n);
}

void
VpScheme::doWritebackBatch(const WritebackItem *items, uint32_t n)
{
    for (uint32_t l = 0; l < n; ++l)
        doWriteback(items[l].pc, items[l].decision, items[l].actual);
}

// --------------------------------------------------------- LocalScheme

LocalScheme::LocalScheme(
    std::unique_ptr<predictors::ValuePredictor> predictor,
    std::string display)
    : inner(std::move(predictor)), display(std::move(display))
{
}

bool
LocalScheme::doPredict(uint64_t pc, unsigned ahead, int64_t &value,
                       uint64_t &token)
{
    token = 0;
    return inner->predictAhead(pc, ahead, value);
}

void
LocalScheme::doWriteback(uint64_t pc, const VpDecision &, int64_t actual)
{
    inner->update(pc, actual);
}

void
LocalScheme::doWritebackBatch(const WritebackItem *items, uint32_t n)
{
    pcScratch.resize(n);
    actualScratch.resize(n);
    for (uint32_t l = 0; l < n; ++l) {
        pcScratch[l] = items[l].pc;
        actualScratch[l] = items[l].actual;
    }
    inner->updateBatch(pcScratch.data(), actualScratch.data(), n);
}

// ---------------------------------------------------------- SgvqScheme

SgvqScheme::SgvqScheme(const core::GDiffConfig &gdiff_cfg)
    : gd(gdiff_cfg), queue(gdiff_cfg.order, 0)
{
}

bool
SgvqScheme::doPredict(uint64_t pc, unsigned, int64_t &value,
                      uint64_t &token)
{
    token = 0;
    queue.visibleWindow(window);
    return gd.predictWithWindow(pc, window, value);
}

void
SgvqScheme::doWriteback(uint64_t pc, const VpDecision &, int64_t actual)
{
    // Writebacks arrive in completion order: the queue sees the
    // execution-order value sequence, with all its cache-miss-induced
    // variation (the paper's §4 problem).
    queue.visibleWindow(window);
    gd.trainWithWindow(pc, window, actual);
    queue.push(actual);
}

// ---------------------------------------------------------- HgvqScheme

HgvqScheme::HgvqScheme(const core::GDiffConfig &gdiff_cfg,
                       size_t local_entries,
                       const predictors::ConfidenceConfig &conf_cfg)
    : VpScheme(conf_cfg), gd(gdiff_cfg),
      queue(gdiff_cfg.order,
            static_cast<size_t>(gdiff_cfg.order) + maxInFlight),
      localStride(local_entries)
{
}

bool
HgvqScheme::doPredict(uint64_t pc, unsigned ahead, int64_t &value,
                      uint64_t &token)
{
    Candidates c;

    // gdiff candidate: from the dispatch-ordered window, *before*
    // pushing this instruction's own slot.
    queue.windowAtDispatch(window);
    c.haveGdiff = gd.predictWithWindow(pc, window, c.gdiffValue);

    // Local-stride candidate (in-flight-compensated): fills this
    // instruction's queue slot (overwritten with the real result at
    // writeback) and competes as a prediction source — the scheme
    // integrates local and global stride locality (paper §5).
    c.haveFiller =
        localStride.predictAhead(pc, ahead, c.fillerValue);

    token = queue.pushSpeculative(c.haveFiller ? c.fillerValue : 0);
    c.token = token;
    c.live = true;
    Candidates &slot = inFlight[token & (maxInFlight - 1)];
    GDIFF_ASSERT(!slot.live,
                 "HGVQ slot %llu dispatched while slot %llu is still in "
                 "flight: more than %zu producers in flight",
                 static_cast<unsigned long long>(token),
                 static_cast<unsigned long long>(slot.token),
                 maxInFlight);
    slot = c;

    // Per-PC component choice: take the candidate whose component
    // confidence is currently higher (gdiff wins ties — it is the
    // added capability under study).
    if (c.haveGdiff &&
        (!c.haveFiller ||
         gdiffConf.level(pc) >= fillerConf.level(pc))) {
        value = c.gdiffValue;
        return true;
    }
    if (c.haveFiller) {
        value = c.fillerValue;
        return true;
    }
    return false;
}

void
HgvqScheme::doWriteback(uint64_t pc, const VpDecision &d, int64_t actual)
{
    queue.commitSlot(d.token, actual);
    // Train against the dispatch-ordered window anchored at this
    // instruction's own slot: execution variation cannot perturb it.
    queue.windowBeforeSlot(d.token, window);
    gd.trainWithWindow(pc, window, actual);
    localStride.update(pc, actual);

    Candidates &c = inFlight[d.token & (maxInFlight - 1)];
    if (c.live && c.token == d.token) {
        if (c.haveGdiff)
            gdiffConf.train(pc, c.gdiffValue == actual);
        if (c.haveFiller)
            fillerConf.train(pc, c.fillerValue == actual);
        c.live = false;
    }
}

} // namespace pipeline
} // namespace gdiff
