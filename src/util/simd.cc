#include "util/simd.hh"

#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

#if defined(__x86_64__) || defined(_M_X64)
#define GDIFF_SIMD_X86 1
#include <immintrin.h>
#else
#define GDIFF_SIMD_X86 0
#endif

namespace gdiff {
namespace simd {

// ------------------------------------------------------------ dispatch

bool
cpuSupportsAvx2()
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

namespace {

/** Resolve the initial mode from CPUID + GDIFF_SIMD. */
Mode
resolveMode()
{
    const char *env = std::getenv("GDIFF_SIMD");
    if (env) {
        if (std::strcmp(env, "off") == 0 ||
            std::strcmp(env, "scalar") == 0 ||
            std::strcmp(env, "OFF") == 0) {
            return Mode::Scalar;
        }
        if (std::strcmp(env, "avx2") == 0) {
            if (!cpuSupportsAvx2())
                fatal("GDIFF_SIMD=avx2 but this CPU has no AVX2");
            return Mode::Avx2;
        }
        if (std::strcmp(env, "auto") != 0) {
            fatal("GDIFF_SIMD='%s' not understood (off|scalar|avx2|"
                  "auto)",
                  env);
        }
    }
    return cpuSupportsAvx2() ? Mode::Avx2 : Mode::Scalar;
}

Mode gMode = resolveMode();

} // anonymous namespace

Mode
activeMode()
{
    return gMode;
}

const char *
activeName()
{
    return gMode == Mode::Avx2 ? "simd.avx2" : "simd.scalar";
}

void
setModeForTest(Mode m)
{
    if (m == Mode::Avx2 && !cpuSupportsAvx2())
        fatal("setModeForTest(Avx2) on a CPU without AVX2");
    gMode = m;
}

// ------------------------------------------------------ scalar kernels

namespace {

void
diffAgainstWindowScalar(int64_t actual, const int64_t *wtop,
                        int64_t *out, size_t n)
{
    for (size_t k = 0; k < n; ++k)
        out[k] = static_cast<int64_t>(static_cast<uint64_t>(actual) -
                                      static_cast<uint64_t>(wtop[-(
                                          static_cast<ptrdiff_t>(k))]));
}

int
firstEqualScalar(const int64_t *a, const int64_t *b, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        if (a[k] == b[k])
            return static_cast<int>(k);
    }
    return -1;
}

size_t
countSecondDiffZeroScalar(const uint64_t *v, size_t n, size_t L)
{
    size_t count = 0;
    for (size_t i = 2 * L; i < n; ++i)
        count += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
    return count;
}

// -------------------------------------------------------- AVX2 kernels

#if GDIFF_SIMD_X86 && defined(__GNUC__)
#define GDIFF_AVX2_FN __attribute__((target("avx2")))

GDIFF_AVX2_FN void
diffAgainstWindowAvx2(int64_t actual, const int64_t *wtop,
                      int64_t *out, size_t n)
{
    const __m256i va = _mm256_set1_epi64x(actual);
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        // Window positions k..k+3 live at wtop[-k-3..-k] ascending;
        // subtract, then reverse lanes so out[k+j] = actual - wtop[-k-j].
        __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            wtop - static_cast<ptrdiff_t>(k) - 3));
        __m256i d = _mm256_sub_epi64(va, w);
        d = _mm256_permute4x64_epi64(d, 0x1b); // lanes 3,2,1,0
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + k), d);
    }
    for (; k < n; ++k)
        out[k] = static_cast<int64_t>(static_cast<uint64_t>(actual) -
                                      static_cast<uint64_t>(wtop[-(
                                          static_cast<ptrdiff_t>(k))]));
}

GDIFF_AVX2_FN int
firstEqualAvx2(const int64_t *a, const int64_t *b, size_t n)
{
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + k));
        __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + k));
        int m = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(va, vb)));
        if (m)
            return static_cast<int>(k) + __builtin_ctz(
                                             static_cast<unsigned>(m));
    }
    for (; k < n; ++k) {
        if (a[k] == b[k])
            return static_cast<int>(k);
    }
    return -1;
}

GDIFF_AVX2_FN size_t
countSecondDiffZeroAvx2(const uint64_t *v, size_t n, size_t L)
{
    if (n <= 2 * L)
        return 0;
    size_t count = 0;
    size_t i = 2 * L;
    for (; i + 4 <= n; i += 4) {
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i - L));
        __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i - 2 * L));
        __m256i eq = _mm256_cmpeq_epi64(_mm256_sub_epi64(a, b),
                                        _mm256_sub_epi64(b, c));
        count += static_cast<size_t>(__builtin_popcount(
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(eq)))));
    }
    for (; i < n; ++i)
        count += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
    return count;
}

#endif // GDIFF_SIMD_X86 && __GNUC__

} // anonymous namespace

// ---------------------------------------------------- public entries

void
diffAgainstWindow(int64_t actual, const int64_t *wtop, int64_t *out,
                  size_t n)
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2) {
        diffAgainstWindowAvx2(actual, wtop, out, n);
        return;
    }
#endif
    diffAgainstWindowScalar(actual, wtop, out, n);
}

int
firstEqual(const int64_t *a, const int64_t *b, size_t n)
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2)
        return firstEqualAvx2(a, b, n);
#endif
    return firstEqualScalar(a, b, n);
}

size_t
countSecondDiffZero(const uint64_t *v, size_t n, size_t L)
{
    if (n <= 2 * L)
        return 0;
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2)
        return countSecondDiffZeroAvx2(v, n, L);
#endif
    return countSecondDiffZeroScalar(v, n, L);
}

} // namespace simd
} // namespace gdiff
