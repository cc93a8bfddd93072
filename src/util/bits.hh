/**
 * @file
 * Small bit-manipulation helpers shared by the table-indexed
 * predictors and the cache model.
 */

#ifndef GDIFF_UTIL_BITS_HH
#define GDIFF_UTIL_BITS_HH

#include <cstdint>

namespace gdiff {

/** @return true if x is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** @return floor(log2(x)); x must be non-zero. */
constexpr unsigned
floorLog2(uint64_t x)
{
    unsigned n = 0;
    while (x >>= 1)
        ++n;
    return n;
}

/** @return ceil(log2(x)); x must be non-zero. */
constexpr unsigned
ceilLog2(uint64_t x)
{
    return isPowerOfTwo(x) ? floorLog2(x) : floorLog2(x) + 1;
}

/** @return the smallest power of two >= x (1 for x == 0). */
constexpr uint64_t
nextPow2(uint64_t x)
{
    return x <= 1 ? 1 : uint64_t(1) << ceilLog2(x);
}

/** @return a mask with the low `bits` bits set. */
constexpr uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << bits) - 1);
}

/**
 * Mix a 64-bit key into a well-distributed hash (SplitMix64 finisher).
 * Used to index tagless predictor tables so that nearby PCs do not
 * systematically collide.
 */
constexpr uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Fold a 64-bit value down to `bits` bits by XOR-folding, preserving
 * entropy from every input bit. Used for context-history hashing in
 * the FCM/DFCM predictors.
 */
constexpr uint64_t
foldBits(uint64_t v, unsigned bits)
{
    if (bits == 0 || bits >= 64)
        return v;
    uint64_t folded = 0;
    while (v) {
        folded ^= v & mask(bits);
        v >>= bits;
    }
    return folded;
}

} // namespace gdiff

#endif // GDIFF_UTIL_BITS_HH
