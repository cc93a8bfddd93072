#include "util/varint.hh"

#include <algorithm>

namespace gdiff {
namespace codec {

namespace {

/** Call @p f on each of v[0..n), phase-major at period @p L. */
template <typename T, typename F>
void
forEachPhaseMajor(const T *v, uint32_t n, uint32_t L, F &&f)
{
    for (uint32_t p = 0; p < L; ++p)
        for (uint32_t i = p; i < n; i += L)
            f(v[i]);
}

/**
 * Map v[0..n) (phase-major at period @p L) to symbols with @p symbolOf
 * and call @p emit(symbol, run) once per maximal run of equal ones —
 * the run boundaries both RLE codecs encode and measure.
 */
template <typename T, typename SymbolOf, typename Emit>
void
forEachRun(const T *v, uint32_t n, uint32_t L, SymbolOf &&symbolOf,
           Emit &&emit)
{
    uint64_t symbol = 0;
    uint32_t run = 0;
    forEachPhaseMajor(v, n, L, [&](T x) {
        uint64_t s = symbolOf(x);
        if (run && s == symbol) {
            ++run;
            return;
        }
        if (run)
            emit(symbol, run);
        symbol = s;
        run = 1;
    });
    if (run)
        emit(symbol, run);
}

/** @return zigzag(x - prev), then makes x the new @p prev. */
inline uint64_t
zigzagDelta(uint64_t x, uint64_t &prev)
{
    uint64_t zz = zigzagEncode(static_cast<int64_t>(x - prev));
    prev = x;
    return zz;
}

/**
 * Decode (symbol, varint run) pairs from [p, end) into the @p n
 * phase-major positions of period @p L. @p readSymbol parses one
 * symbol (advancing p; false on malformed input) and @p put(i, s)
 * stores symbol s at position i. Runs may cross phase boundaries.
 */
template <typename ReadSymbol, typename Put>
bool
decodeRuns(const uint8_t *p, const uint8_t *end, uint32_t n,
           uint32_t L, ReadSymbol &&readSymbol, Put &&put)
{
    uint32_t left = n, at = 0, phase = 0;
    while (left) {
        uint64_t symbol = 0, run = 0;
        if (!readSymbol(p, end, &symbol))
            return false;
        size_t used = getVarint(p, end, &run);
        if (used == 0)
            return false;
        p += used;
        // A run that is zero or overshoots the column is corrupt; the
        // check also bounds the loop so hostile input cannot spin.
        if (run == 0 || run > left)
            return false;
        left -= static_cast<uint32_t>(run);
        while (run) {
            // the rest of the run, or of the current phase
            uint64_t m = std::min<uint64_t>(run, (n - 1 - at) / L + 1);
            run -= m;
            for (; m; --m, at += L)
                put(at, symbol);
            if (at >= n)
                at = ++phase;
        }
    }
    return p == end;
}

} // anonymous namespace

DeltaSizes
deltaSizes(const uint64_t *v, uint32_t n, uint32_t L)
{
    DeltaSizes s;
    uint64_t prev = 0;
    forEachRun(
        v, n, L,
        [&](uint64_t x) {
            uint64_t zz = zigzagDelta(x, prev);
            s.varint += varintBytes(zz);
            return zz;
        },
        [&](uint64_t zz, uint32_t run) {
            s.rle += varintBytes(zz) + varintBytes(run);
        });
    return s;
}

size_t
byteRleSize(const uint8_t *v, uint32_t n, uint32_t L)
{
    size_t bytes = 0;
    forEachRun(
        v, n, L, [](uint8_t x) { return x; },
        [&](uint64_t, uint32_t run) { bytes += 1 + varintBytes(run); });
    return bytes;
}

void
encodeDeltaVarint(const uint64_t *v, uint32_t n, uint32_t L,
                  std::vector<uint8_t> &out)
{
    uint64_t prev = 0;
    forEachPhaseMajor(v, n, L, [&](uint64_t x) {
        putVarint(out, zigzagDelta(x, prev));
    });
}

bool
decodeDeltaVarint(const uint8_t *p, size_t bytes, uint64_t *v,
                  uint32_t n, uint32_t L)
{
    const uint8_t *end = p + bytes;
    uint64_t prev = 0;
    for (uint32_t phase = 0; phase < L; ++phase) {
        for (uint32_t i = phase; i < n; i += L) {
            uint64_t zz = 0;
            size_t used = getVarint(p, end, &zz);
            if (used == 0)
                return false;
            p += used;
            prev += static_cast<uint64_t>(zigzagDecode(zz));
            v[i] = prev;
        }
    }
    return p == end;
}

void
encodeDeltaRle(const uint64_t *v, uint32_t n, uint32_t L,
               std::vector<uint8_t> &out)
{
    uint64_t prev = 0;
    forEachRun(
        v, n, L, [&](uint64_t x) { return zigzagDelta(x, prev); },
        [&](uint64_t zz, uint32_t run) {
            putVarint(out, zz);
            putVarint(out, run);
        });
}

bool
decodeDeltaRle(const uint8_t *p, size_t bytes, uint64_t *v,
               uint32_t n, uint32_t L)
{
    uint64_t prev = 0;
    return decodeRuns(
        p, p + bytes, n, L,
        [](const uint8_t *&q, const uint8_t *end, uint64_t *delta) {
            uint64_t zz = 0;
            size_t used = getVarint(q, end, &zz);
            q += used;
            *delta = static_cast<uint64_t>(zigzagDecode(zz));
            return used != 0;
        },
        [&](uint32_t i, uint64_t delta) {
            prev += delta;
            v[i] = prev;
        });
}

void
encodeByteRle(const uint8_t *v, uint32_t n, uint32_t L,
              std::vector<uint8_t> &out)
{
    forEachRun(
        v, n, L, [](uint8_t x) { return x; },
        [&](uint64_t byte, uint32_t run) {
            out.push_back(static_cast<uint8_t>(byte));
            putVarint(out, run);
        });
}

bool
decodeByteRle(const uint8_t *p, size_t bytes, uint8_t *v, uint32_t n,
              uint32_t L)
{
    return decodeRuns(
        p, p + bytes, n, L,
        [](const uint8_t *&q, const uint8_t *end, uint64_t *byte) {
            if (q >= end)
                return false;
            *byte = *q++;
            return true;
        },
        [&](uint32_t i, uint64_t byte) {
            v[i] = static_cast<uint8_t>(byte);
        });
}

} // namespace codec
} // namespace gdiff
