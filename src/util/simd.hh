/**
 * @file
 * Runtime-dispatched SIMD kernels.
 *
 * Three data-parallel passes, each with a caller that a benchmark
 * workload runs: diffAgainstWindow() builds a lane of differences
 * against a window and firstEqual() finds the first matching position
 * among stored differences (both in gdiff's fused batch loop,
 * docs/INTERNALS.md §10); countSecondDiffZero() counts zero second
 * differences for the stride-period scan. Each pass has two
 * implementations:
 *
 *  - a portable scalar loop, always compiled and always tested;
 *  - a hand-rolled AVX2 variant compiled with a per-function target
 *    attribute (no global -mavx2), selected at runtime when the CPU
 *    supports it.
 *
 * Every kernel is pure integer arithmetic, so both variants are
 * bit-identical by construction; tests/test_simd.cc pins that, and
 * the scalar-vs-batch differ (src/check) polices it end to end.
 *
 * Dispatch is process-global and decided once, from CPUID plus the
 * GDIFF_SIMD environment variable:
 *
 *   GDIFF_SIMD=off | scalar   force the scalar kernels
 *   GDIFF_SIMD=avx2           force AVX2 (fatal if unsupported)
 *   GDIFF_SIMD=auto | unset   use AVX2 when the CPU has it
 *
 * Tests may override the decision in-process with setModeForTest().
 */

#ifndef GDIFF_UTIL_SIMD_HH
#define GDIFF_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace gdiff {
namespace simd {

/** Selected kernel set. */
enum class Mode
{
    Scalar,
    Avx2,
};

/** @return the active kernel set (env override applied on first call). */
Mode activeMode();

/**
 * @return the active mode as a stable counter/display name:
 * "simd.avx2" or "simd.scalar". Used for the obs dispatch counter and
 * the daemon status endpoint.
 */
const char *activeName();

/** @return true if this CPU can run the AVX2 kernels. */
bool cpuSupportsAvx2();

/**
 * Force a kernel set in-process (tests only; not thread-safe against
 * concurrent kernel calls). Forcing Avx2 on a CPU without AVX2 is
 * fatal.
 */
void setModeForTest(Mode m);

/**
 * Difference lane against a window stored newest-last: with wtop
 * pointing at the newest visible value, out[k] = actual - wtop[-k]
 * (two's-complement wrapping) for k in [0, n). This is gdiff's n-diff
 * reconstruction pass over the batch ext buffer, where window
 * position k is physically at wtop[-k].
 */
void diffAgainstWindow(int64_t actual, const int64_t *wtop,
                       int64_t *out, size_t n);

/**
 * @return the smallest k in [0, n) with a[k] == b[k], or -1 — gdiff's
 * nearest-first difference comparators (paper Fig. 5).
 */
int firstEqual(const int64_t *a, const int64_t *b, size_t n);

/**
 * @return how many i in [2L, n) have a zero lag-@p L second
 * difference: v[i] - v[i-L] == v[i-L] - v[i-2L] (two's-complement
 * wrapping). This is the inner loop of the period scan
 * (workload::detectStridePeriod) that both the v3 codec's encoder
 * and the sampled simulator's profiling pass run once per candidate
 * period — O(maxPeriod x n) scalar work that dominates either caller
 * without the lane kernel. Returns 0 when n <= 2L.
 */
size_t countSecondDiffZero(const uint64_t *v, size_t n, size_t L);

} // namespace simd
} // namespace gdiff

#endif // GDIFF_UTIL_SIMD_HH
