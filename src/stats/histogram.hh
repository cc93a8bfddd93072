/**
 * @file
 * Integer-valued histogram with a fixed log-linear layout. It holds
 * the value delay distribution (paper Fig. 12) and every obs and
 * gdiffd latency or depth percentile.
 */

#ifndef GDIFF_STATS_HISTOGRAM_HH
#define GDIFF_STATS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gdiff {
namespace stats {

/**
 * Histogram over the whole uint64_t range, in one fixed layout:
 *  - samples below 128 get one exact bucket per value;
 *  - each power-of-two range [2^k, 2^(k+1)) above that is split into
 *    64 equal buckets, each at most 1/64 of its lower edge wide.
 *
 * So percentile() is never below the true order statistic and at most
 * 1/64 above it, capped at maxSample(). Every histogram has the same
 * buckets (3,776 counts, about 30 KiB), which makes merge() total.
 * The counts are allocated once, at construction, and never move:
 * obs::snapshot() may read a histogram that its owning thread is
 * still recording into.
 */
class Histogram
{
  public:
    Histogram();

    /** Record one sample. */
    void record(uint64_t sample);

    /** @return how many samples equalled @p v (requires v < 128,
     * where buckets are exact). */
    uint64_t count(uint64_t v) const;

    /** @return total samples recorded. */
    uint64_t samples() const { return sampleCount; }

    /** @return count(v) as a fraction of all samples (0 if empty). */
    double fraction(uint64_t v) const;

    /** @return the mean of all recorded samples, from the exact
     * running sum. */
    double mean() const;

    /** @return the largest sample seen so far (0 if none). */
    uint64_t maxSample() const { return maxSeen; }

    /**
     * @return an upper bound on the smallest recorded value v such
     * that at least @p p (in [0,1]) of all samples are <= v: the top
     * of v's bucket, capped at maxSample(). Exact below 128, at most
     * 1/64 high above. An empty histogram reports 0.
     */
    uint64_t percentile(double p) const;

    /** Fold @p other into this histogram. */
    void merge(const Histogram &other);

  private:
    std::vector<uint64_t> counts;
    uint64_t sampleCount = 0;
    double sum = 0.0;
    uint64_t maxSeen = 0;
};

} // namespace stats
} // namespace gdiff

#endif // GDIFF_STATS_HISTOGRAM_HH
