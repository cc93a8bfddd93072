/**
 * @file
 * A fixed-capacity most-recent-first history buffer.
 *
 * This is the storage idiom behind the global value queue (GVQ): a
 * bounded window over a stream where entry 0 is the most recently
 * pushed element and entry k is the element pushed k steps earlier.
 */

#ifndef GDIFF_UTIL_RING_HISTORY_HH
#define GDIFF_UTIL_RING_HISTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bits.hh"
#include "logging.hh"

namespace gdiff {

/**
 * Bounded most-recent-first history of T.
 *
 * push() is O(1); operator[](k) returns the element pushed k pushes
 * ago (0 = newest). Until the buffer fills, out-of-range entries read
 * as value-initialised T (matching hardware tables that power up
 * zeroed).
 *
 * Storage is rounded up to a power of two so that slot arithmetic is
 * a mask, not a modulo; the logical capacity (what size() saturates
 * at and what capacity() reports) is the one requested.
 */
template <typename T>
class RingHistory
{
  public:
    /** @param capacity maximum number of retained elements (> 0). */
    explicit RingHistory(size_t capacity)
        : buf(nextPow2(capacity)), slotMask(buf.size() - 1),
          cap(capacity), head(0), count(0)
    {
        GDIFF_ASSERT(capacity > 0, "RingHistory needs capacity > 0");
    }

    /** Append a new most-recent element, evicting the oldest. */
    void
    push(const T &v)
    {
        head = (head + 1) & slotMask;
        buf[head] = v;
        if (count < cap)
            ++count;
        ++pushes;
    }

    /**
     * @param k age of the requested element (0 = newest).
     * @return the element pushed k pushes ago, or a value-initialised
     *         T if fewer than k+1 elements have ever been pushed.
     */
    T
    operator[](size_t k) const
    {
        if (k >= count)
            return T();
        return buf[(head - k) & slotMask];
    }

    /**
     * Copy the n elements of ages from .. from+n-1 to dst[0, n),
     * newest first. All of them must be retained: from + n <= size().
     */
    void
    copyAges(size_t from, size_t n, T *dst) const
    {
        const size_t top = head - from;
        for (size_t k = 0; k < n; ++k)
            dst[k] = buf[(top - k) & slotMask];
    }

    /**
     * Overwrite the element of age k in place (used by the hybrid
     * global value queue to replace a speculative fill with the real
     * execution result). Out-of-range ages are ignored: the slot has
     * already been evicted from the window.
     *
     * @param k age of the element to overwrite (0 = newest).
     * @param v replacement value.
     * @return true if the slot was still in the window.
     */
    bool
    replace(size_t k, const T &v)
    {
        if (k >= count)
            return false;
        buf[(head - k) & slotMask] = v;
        return true;
    }

    /** @return number of valid elements (<= capacity()). */
    size_t size() const { return count; }

    /** @return the fixed capacity. */
    size_t capacity() const { return cap; }

    /** @return true if no element has been pushed yet. */
    bool empty() const { return count == 0; }

    /**
     * @return the absolute number of pushes so far, usable as a
     * monotonically increasing sequence number for age arithmetic.
     */
    uint64_t totalPushes() const { return pushes; }

    /** Forget all contents (window becomes empty). */
    void
    clear()
    {
        count = 0;
        head = 0;
    }

  private:
    std::vector<T> buf; ///< nextPow2(cap) slots
    size_t slotMask;
    size_t cap;
    size_t head;
    size_t count;
    uint64_t pushes = 0;
};

} // namespace gdiff

#endif // GDIFF_UTIL_RING_HISTORY_HH
