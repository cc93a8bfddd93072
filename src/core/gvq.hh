/**
 * @file
 * Global value queues: the history structures behind the gdiff
 * predictor (paper §3-§5).
 *
 *  - GlobalValueQueue: the architectural GVQ, with an optional
 *    value-delay T that hides the newest T values from the visible
 *    window (the profile-mode delay model of paper §3.1).
 *  - HybridGvq: the HGVQ of paper §5 — slots are pushed with
 *    speculative (locally predicted) values at dispatch, in dispatch
 *    order, and overwritten with real results at writeback. Slot ids
 *    let in-flight instructions address their own dispatch position.
 */

#ifndef GDIFF_CORE_GVQ_HH
#define GDIFF_CORE_GVQ_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/logging.hh"
#include "util/ring_history.hh"

namespace gdiff {
namespace core {

/** Maximum supported gdiff order (queue window size). */
inline constexpr unsigned maxOrder = 64;

/**
 * A snapshot of the n most recent visible queue values.
 * values[k] is the value produced k+1 value-productions before the
 * reference point; count may be < order while the queue warms up.
 *
 * The queues fill a caller-owned window in place and write only
 * values[0, count): slots past count hold whatever an earlier fill
 * left there and are never read. Hot paths keep one window and
 * refill it, so the 512-byte array is zeroed once, not per query.
 */
struct ValueWindow
{
    std::array<int64_t, maxOrder> values{};
    unsigned count = 0;
};

/**
 * The architectural global value queue of paper §3, with the
 * profile-mode value-delay parameter T of §3.1: the visible window
 * covers ages T+1 .. T+order, modelling a predictor that cannot see
 * the T most recently produced values.
 */
class GlobalValueQueue
{
  public:
    /**
     * @param order window size n visible to the predictor.
     * @param delay value delay T (0 = ideal profile model).
     */
    explicit GlobalValueQueue(unsigned order, unsigned delay = 0)
        : order_(order), delay_(delay),
          hist(checkedCapacity(order, delay))
    {
    }

    /** Append a newly produced value. */
    void push(int64_t v) { hist.push(v); }

    /** Fill @p w with the delay-shifted visible window. */
    void
    visibleWindow(ValueWindow &w) const
    {
        size_t have = hist.size() > delay_ ? hist.size() - delay_ : 0;
        w.count = static_cast<unsigned>(
            have > order_ ? order_ : have);
        hist.copyAges(delay_, w.count, w.values.data());
    }

    /** @return the configured window size n. */
    unsigned order() const { return order_; }

    /** @return the configured value delay T. */
    unsigned delay() const { return delay_; }

    /**
     * Copy the retained history into @p dst oldest-first (dst must
     * hold order+delay values). Together with the values a batch is
     * about to push, this linearizes the queue into a flat stream so
     * the batched gdiff paths can address any lane's visible window
     * with plain pointer arithmetic instead of per-lane ring walks.
     *
     * @return the number of values copied (== current ring size).
     */
    size_t
    copyRecent(int64_t *dst) const
    {
        const size_t have = hist.size();
        for (size_t j = 0; j < have; ++j)
            dst[j] = hist[have - 1 - j];
        return have;
    }

    /** @return total values ever pushed. */
    uint64_t totalPushes() const { return hist.totalPushes(); }

    /** Forget all history. */
    void clear() { hist.clear(); }

  private:
    /** Validate the order before the ring is constructed. */
    static size_t
    checkedCapacity(unsigned order, unsigned delay)
    {
        GDIFF_ASSERT(order >= 1 && order <= maxOrder,
                     "GVQ order %u out of range", order);
        return static_cast<size_t>(order) + delay;
    }

    unsigned order_;
    unsigned delay_;
    RingHistory<int64_t> hist;
};

/**
 * The hybrid global value queue (HGVQ) of paper §5.
 *
 * At dispatch, a slot is pushed carrying a speculative value (the
 * local-stride prediction); the returned slot id travels with the
 * instruction. At writeback the slot is overwritten with the real
 * result. Both the prediction window (at dispatch) and the training
 * window (at writeback, anchored at the instruction's own slot) are
 * taken in *dispatch order*, which is what removes the execution
 * variation that plagues the speculative GVQ.
 */
class HybridGvq
{
  public:
    /**
     * @param order    window size n visible to the predictor.
     * @param capacity ring capacity; must cover order plus the
     *        maximum number of in-flight producers (ROB size).
     */
    explicit HybridGvq(unsigned order, size_t capacity = 256)
        : order_(order), hist(capacity)
    {
        GDIFF_ASSERT(order >= 1 && order <= maxOrder,
                     "HGVQ order %u out of range", order);
        GDIFF_ASSERT(capacity >= order, "HGVQ capacity < order");
    }

    /**
     * Push a slot at dispatch with a speculative value.
     * @return the slot id (0-based dispatch sequence number).
     */
    uint64_t
    pushSpeculative(int64_t v)
    {
        hist.push(v);
        return hist.totalPushes() - 1;
    }

    /**
     * Overwrite a slot with the instruction's real result at
     * writeback. A slot that has already fallen out of the ring is
     * silently dropped (it can no longer influence any window).
     */
    void
    commitSlot(uint64_t slot, int64_t v)
    {
        uint64_t newest = hist.totalPushes() - 1;
        GDIFF_ASSERT(slot <= newest, "commit of future slot");
        hist.replace(static_cast<size_t>(newest - slot), v);
    }

    /** Fill @p w with the n slots dispatched most recently (used for
     * prediction at dispatch). */
    void
    windowAtDispatch(ValueWindow &w) const
    {
        windowEndingAt(hist.totalPushes(), w);
    }

    /**
     * Fill @p w with the n slots that immediately precede the given
     * slot (used for table training at writeback).
     */
    void
    windowBeforeSlot(uint64_t slot, ValueWindow &w) const
    {
        windowEndingAt(slot, w);
    }

    /** @return the configured window size n. */
    unsigned order() const { return order_; }

    /** @return total slots ever pushed. */
    uint64_t totalPushes() const { return hist.totalPushes(); }

  private:
    /** Window of the `order` slots before absolute position `end`
     * (exclusive). The window stops at the beginning of time and at
     * slots that have left the ring. */
    void
    windowEndingAt(uint64_t end, ValueWindow &w) const
    {
        uint64_t newest = hist.totalPushes();
        GDIFF_ASSERT(end <= newest, "window past the queue head");
        // values[k] is slot end-1-k, whose age is first + k.
        uint64_t first = newest - end;
        uint64_t n = first < hist.size() ? hist.size() - first : 0;
        n = std::min<uint64_t>({n, end, order_});
        w.count = static_cast<unsigned>(n);
        hist.copyAges(static_cast<size_t>(first), w.count,
                      w.values.data());
    }

    unsigned order_;
    RingHistory<int64_t> hist;
};

} // namespace core
} // namespace gdiff

#endif // GDIFF_CORE_GVQ_HH
