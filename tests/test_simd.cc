/**
 * @file
 * SIMD kernel equivalence tests (src/util/simd.hh): the AVX2 and
 * scalar variants of every kernel must agree bit-for-bit on arbitrary
 * inputs, including the edge shapes the vector loops special-case —
 * empty lanes, lanes shorter than the vector width, remainders after
 * the vector body, and values at the int64 boundaries.
 */

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.hh"
#include "util/simd.hh"

namespace gdiff {
namespace {

class SimdKernels : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!simd::cpuSupportsAvx2())
            GTEST_SKIP() << "no AVX2 on this host";
    }
    void
    TearDown() override
    {
        simd::setModeForTest(simd::cpuSupportsAvx2()
                                 ? simd::Mode::Avx2
                                 : simd::Mode::Scalar);
    }
};

// Sizes around the 4-wide vector body: empty, sub-width, exact
// multiples, and remainders.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 64, 1000};

std::vector<uint64_t>
randomLane(size_t n, uint64_t seed)
{
    Xorshift64Star rng(seed);
    std::vector<uint64_t> v(n);
    for (auto &x : v)
        x = rng.next();
    // Sprinkle boundary values into larger lanes.
    if (n > 4) {
        v[0] = 0;
        v[1] = ~0ull;
        v[2] = static_cast<uint64_t>(
            std::numeric_limits<int64_t>::min());
        v[3] = static_cast<uint64_t>(
            std::numeric_limits<int64_t>::max());
    }
    return v;
}

TEST_F(SimdKernels, DiffAgainstWindowMatchesScalarAndWraps)
{
    for (size_t n : kSizes) {
        if (n == 0)
            continue;
        auto raw = randomLane(n, 47 + n);
        // Window stored oldest-first; wtop points at the newest.
        std::vector<int64_t> window(raw.begin(), raw.end());
        window[0] = std::numeric_limits<int64_t>::min();
        const int64_t *wtop = window.data() + n - 1;
        const int64_t actual = std::numeric_limits<int64_t>::max();
        std::vector<int64_t> avx(n, 1), sc(n, 2);
        simd::setModeForTest(simd::Mode::Avx2);
        simd::diffAgainstWindow(actual, wtop, avx.data(), n);
        simd::setModeForTest(simd::Mode::Scalar);
        simd::diffAgainstWindow(actual, wtop, sc.data(), n);
        for (size_t k = 0; k < n; ++k) {
            ASSERT_EQ(avx[k], sc[k]) << "n=" << n << " k=" << k;
            int64_t expect = static_cast<int64_t>(
                static_cast<uint64_t>(actual) -
                static_cast<uint64_t>(
                    wtop[-static_cast<ptrdiff_t>(k)]));
            ASSERT_EQ(sc[k], expect) << "n=" << n << " k=" << k;
        }
    }
}

TEST_F(SimdKernels, FirstEqualFindsSmallestIndex)
{
    for (size_t n : kSizes) {
        auto rawA = randomLane(n, 83 + n);
        std::vector<int64_t> a(rawA.begin(), rawA.end());
        std::vector<int64_t> b(n);
        for (size_t i = 0; i < n; ++i) // no match anywhere
            b[i] = static_cast<int64_t>(static_cast<uint64_t>(a[i]) + 1);
        // Plant matches at every position in turn (and keep a later
        // duplicate match to prove the *first* index wins).
        for (size_t hit = 0; hit <= n; ++hit) {
            std::vector<int64_t> bb = b;
            if (hit < n) {
                bb[hit] = a[hit];
                if (hit + 3 < n)
                    bb[hit + 3] = a[hit + 3];
            }
            simd::setModeForTest(simd::Mode::Avx2);
            int iavx = simd::firstEqual(a.data(), bb.data(), n);
            simd::setModeForTest(simd::Mode::Scalar);
            int isc = simd::firstEqual(a.data(), bb.data(), n);
            ASSERT_EQ(iavx, isc) << "n=" << n << " hit=" << hit;
            int expect =
                hit < n ? static_cast<int>(hit) : -1;
            ASSERT_EQ(isc, expect) << "n=" << n << " hit=" << hit;
            if (n > 16)
                break; // exhaustive sweep only for small lanes
        }
    }
}

TEST_F(SimdKernels, CountSecondDiffZeroMatchesScalarReference)
{
    // Lags around the vector width plus the degenerate n <= 2L shapes
    // (scan window shorter than two periods -> zero by contract).
    const size_t kLags[] = {1, 2, 3, 4, 5, 8, 31, 64};
    for (size_t n : kSizes) {
        for (size_t L : kLags) {
            auto v = randomLane(n, 17 * n + L);
            // Plant a genuine stride run so counts are non-trivial.
            for (size_t i = 8; i < n && i < 200; ++i)
                v[i] = v[i - 1] + 3;
            simd::setModeForTest(simd::Mode::Avx2);
            size_t avx = simd::countSecondDiffZero(v.data(), n, L);
            simd::setModeForTest(simd::Mode::Scalar);
            size_t sc = simd::countSecondDiffZero(v.data(), n, L);
            ASSERT_EQ(avx, sc) << "n=" << n << " L=" << L;

            size_t ref = 0;
            for (size_t i = 2 * L; i < n; ++i)
                ref += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
            ASSERT_EQ(sc, ref) << "n=" << n << " L=" << L;
        }
    }
}

TEST_F(SimdKernels, RandomizedParityFuzz)
{
    // Beyond the curated kSizes shapes: several hundred trials with
    // randomized lengths, lags, window tops, and planted structure —
    // every kernel's AVX2 and scalar paths must agree bit-for-bit.
    Xorshift64Star rng(0xf00d);
    for (int trial = 0; trial < 400; ++trial) {
        size_t n = 1 + rng.below(600);
        auto raw = randomLane(n, rng.next());
        std::vector<int64_t> a(raw.begin(), raw.end());

        // Sometimes plant a stride run / duplicates so firstEqual and
        // countSecondDiffZero exercise their hit paths, not just
        // misses.
        if (rng.below(2) == 0)
            for (size_t i = 1 + rng.below(n); i < n; ++i)
                a[i] = static_cast<int64_t>(
                    static_cast<uint64_t>(a[i - 1]) + rng.below(5));

        std::vector<int64_t> b = a;
        size_t flips = rng.below(n + 1);
        for (size_t f = 0; f < flips; ++f)
            b[rng.below(n)] ^= static_cast<int64_t>(1 + rng.below(7));

        simd::setModeForTest(simd::Mode::Avx2);
        int feAvx = simd::firstEqual(a.data(), b.data(), n);
        simd::setModeForTest(simd::Mode::Scalar);
        int feSc = simd::firstEqual(a.data(), b.data(), n);
        ASSERT_EQ(feAvx, feSc) << "trial=" << trial << " n=" << n;

        const int64_t *wtop = a.data() + n - 1;
        int64_t actual = static_cast<int64_t>(rng.next());
        std::vector<int64_t> dAvx(n), dSc(n);
        simd::setModeForTest(simd::Mode::Avx2);
        simd::diffAgainstWindow(actual, wtop, dAvx.data(), n);
        simd::setModeForTest(simd::Mode::Scalar);
        simd::diffAgainstWindow(actual, wtop, dSc.data(), n);
        ASSERT_EQ(dAvx, dSc) << "trial=" << trial << " n=" << n;

        size_t L = 1 + rng.below(80);
        std::vector<uint64_t> u(a.begin(), a.end());
        simd::setModeForTest(simd::Mode::Avx2);
        size_t cAvx = simd::countSecondDiffZero(u.data(), n, L);
        simd::setModeForTest(simd::Mode::Scalar);
        size_t cSc = simd::countSecondDiffZero(u.data(), n, L);
        ASSERT_EQ(cAvx, cSc)
            << "trial=" << trial << " n=" << n << " L=" << L;
    }
}

TEST(SimdDispatch, NamesAreStable)
{
    simd::Mode m = simd::activeMode();
    const char *name = simd::activeName();
    if (m == simd::Mode::Avx2)
        EXPECT_STREQ(name, "simd.avx2");
    else
        EXPECT_STREQ(name, "simd.scalar");
}

} // namespace
} // namespace gdiff
