#include "histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace gdiff {
namespace stats {

namespace {

/// Values below kExact (128) get one bucket each. A wider value drops
/// its low `shift` bits and keeps its top kSubBits+1 bits, so each
/// power of two from 128 up splits into kSub (64) buckets. Bucket
/// index = shift * kSub + (v >> shift), which is v itself below 128.
constexpr unsigned kSubBits = 6;
constexpr uint64_t kSub = uint64_t(1) << kSubBits;
constexpr uint64_t kExact = 2 * kSub;
constexpr unsigned kMaxShift = 64 - (kSubBits + 1);
constexpr size_t kBuckets = kMaxShift * kSub + kExact;

size_t
bucketOf(uint64_t v)
{
    const unsigned width = static_cast<unsigned>(std::bit_width(v));
    const unsigned shift = width > kSubBits + 1 ? width - (kSubBits + 1)
                                                : 0;
    return shift * kSub + static_cast<size_t>(v >> shift);
}

/** @return the largest value that lands in bucket @p b. */
uint64_t
bucketTop(size_t b)
{
    if (b < kExact)
        return b;
    const unsigned shift = static_cast<unsigned>(b / kSub - 1);
    const uint64_t lead = b - shift * kSub; // in [kSub, kExact)
    return (lead << shift) + ((uint64_t(1) << shift) - 1);
}

} // anonymous namespace

Histogram::Histogram()
    : counts(kBuckets, 0)
{
}

void
Histogram::record(uint64_t sample)
{
    ++counts[bucketOf(sample)];
    ++sampleCount;
    sum += static_cast<double>(sample);
    if (sample > maxSeen)
        maxSeen = sample;
}

uint64_t
Histogram::count(uint64_t v) const
{
    GDIFF_ASSERT(v < kExact, "count(%llu): buckets are exact only "
                 "below %llu", static_cast<unsigned long long>(v),
                 static_cast<unsigned long long>(kExact));
    return counts[v];
}

double
Histogram::fraction(uint64_t v) const
{
    if (sampleCount == 0)
        return 0.0;
    return static_cast<double>(count(v)) /
           static_cast<double>(sampleCount);
}

double
Histogram::mean() const
{
    return sampleCount == 0 ? 0.0
                            : sum / static_cast<double>(sampleCount);
}

uint64_t
Histogram::percentile(double p) const
{
    GDIFF_ASSERT(p >= 0.0 && p <= 1.0,
                 "percentile %f outside [0,1]", p);
    if (sampleCount == 0)
        return 0;
    // Smallest bucket whose cumulative count reaches p of the total;
    // ceil() keeps p=0 meaningful (the smallest recorded sample's
    // bucket) without rounding surprises for tiny sample counts.
    uint64_t need = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(sampleCount)));
    if (need == 0)
        need = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += counts[b];
        if (seen >= need)
            return std::min(bucketTop(b), maxSeen);
    }
    return maxSeen;
}

void
Histogram::merge(const Histogram &other)
{
    for (size_t b = 0; b < kBuckets; ++b)
        counts[b] += other.counts[b];
    sampleCount += other.sampleCount;
    sum += other.sum;
    maxSeen = std::max(maxSeen, other.maxSeen);
}

} // namespace stats
} // namespace gdiff
