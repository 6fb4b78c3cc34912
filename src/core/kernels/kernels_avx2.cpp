/**
 * @file
 * AVX2 bodies of the kernel layer. This translation unit is the only
 * one compiled with -mavx2 (see CMakeLists.txt); when the compiler
 * cannot target AVX2 the file compiles to a stub table and avx2Ops()
 * reports unavailability, so the build never emits AVX2 instructions
 * it cannot gate at runtime.
 *
 * Bit-identity with the scalar bodies (the invariant every test in
 * tests/test_kernels.cpp pins down):
 *  - projectRows walks each (row, filter) accumulator in ascending
 *    element order using separate _mm256_mul_ps + _mm256_add_ps —
 *    never FMA, whose single rounding would diverge. The 8 lanes are
 *    8 *independent* filters of the interleaved mirror, so widening
 *    reorders nothing within any accumulator.
 *    A partial last octet of filters computes in the same vector loop
 *    when the mirror has the lanes, and a masked store keeps only
 *    the `bits` lanes.
 *  - signPack compares with _CMP_LT_OQ against +0.0f: -0.0f < 0.0f
 *    is false, exactly like the scalar `p < 0.0f` (all-zero padding
 *    rows produce -0.0f projections, which must not set bits — a raw
 *    sign-bit movemask would get this wrong). A partial last octet
 *    loads masked, and its masked-off lanes read +0.0f.
 *  - signFrame holds an octet of positions in lanes and up to 8 bits'
 *    chains side by side, each chain its taps ascending with separate
 *    multiply and add; it compares the same way, one bit per compare,
 *    and folds the compares into per-lane words. A partial octet of
 *    positions loads masked and stores only its positions.
 *  - the span kernels only move values: gatherSpan checks each index
 *    octet once per block of eight planes (one load per plane for an
 *    octet of consecutive indices, one vgatherdps per plane for any
 *    other).
 *  - groupSums copies and adds elementwise (octets, a quad, then
 *    single floats), each group's copy and adds in the scalar body's
 *    order.
 *  - ownerValues runs a 4-row x 2-octet register tile: 8 independent
 *    (row, filter) chains, each starting at +0 and adding its taps in
 *    ascending order, the patch values read from the conv frame; a
 *    partial last octet loads and stores masked.
 *  - ownerScatter transposes 8 owner rows x 8 filters per tile and
 *    adds each filter's 8 values to 8 consecutive outputs — one add
 *    per element, as the scalar loop does.
 *  - ownerWeightMul keeps up to 3 filter octets x a group of taps in
 *    registers (3 x 3, 2 x 5 or 1 x 9) and walks the owners ascending
 *    once per group: every accumulator still adds one product per
 *    owner, in owner order. Only a last partial octet loads and
 *    stores masked.
 *  - convForward holds up to 4 filters x 2-8 output octets in
 *    registers (at least four chains): each output starts at its bias
 *    and adds its taps in ascending order, and is stored once. Output
 *    rows split into whole octets and, when ow % 8 != 0, a partial
 *    last octet that loads and stores masked. The input gradient runs
 *    here too, over gradient frames with flipped kernels.
 *
 * Every body returns with the upper halves of the vector registers
 * clean: with them dirty, the baseline-ISA code that runs next pays a
 * merge on every SSE instruction. GCC ends an AVX function with
 * vzeroupper (the build keeps that pass on below -O2) unless a 256-bit
 * value is one of its arguments, so a vector never crosses a call that
 * may stay out of line: the tile helpers take a lane count and build
 * their mask inside.
 */

#include "core/kernels/kernels.hpp"
#include "core/kernels/group_lists.hpp"

#ifdef __AVX2__

#include <algorithm>
#include <array>
#include <cstring>
#include <immintrin.h>
#include <utility>

namespace mercury {
namespace kernels {
namespace {

/** Lanes [0, n) all-ones, the rest zero (n may be <= 0 or >= 8). */
inline __m256i
lanesBelow(int64_t n)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n < 0 ? 0 : n > 8 ? 8 : n)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** Store the octet at p: all 8 lanes, or the `tail` lanes of a last one. */
inline void
storeOctet(float *p, __m256 v, bool whole, __m256i tail)
{
    if (whole)
        _mm256_storeu_ps(p, v);
    else
        _mm256_maskstore_ps(p, tail, v);
}

/**
 * Load the octet at p: all 8 lanes, or the `tail` lanes of a last one
 * (the rest read +0.0f and touch no memory).
 */
inline __m256
loadOctet(const float *p, bool whole, __m256i tail)
{
    return whole ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, tail);
}

void
projectRowsAvx2(const float *rows, int64_t nrows, int64_t d,
                const float * /*cols*/, const float *inter,
                int inter_stride, int bits, float *out)
{
    const int64_t stride = inter_stride;
    // Octets [0, vec_end) run in the vector loop. A partial last octet
    // (bits % 8 != 0) joins them when the mirror holds 8 lanes there
    // (n + 8 <= inter_stride): its lanes past `bits` sum filters the
    // pass does not use, and the masked store drops them. It stays
    // inside the loop (a separate epilogue moved the placement of the
    // tail-free shapes measurably). Only without that room does the
    // scalar tail run.
    const int whole = bits & ~7;
    const int vec_end =
        (whole < bits && whole + 8 <= inter_stride) ? bits : whole;
    const __m256i tail = lanesBelow(bits - whole);
    // 4-row x 8-filter register tile: the accumulators live in
    // registers across the whole element loop, and each interleaved
    // matrix line is loaded once per tile instead of once per row.
    int64_t r = 0;
    for (; r + 4 <= nrows; r += 4) {
        const float *v0 = rows + r * d;
        const float *v1 = v0 + d;
        const float *v2 = v1 + d;
        const float *v3 = v2 + d;
        float *o0 = out + r * bits;
        float *o1 = o0 + bits;
        float *o2 = o1 + bits;
        float *o3 = o2 + bits;
        int n = 0;
        for (; n < vec_end; n += 8) {
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            for (int64_t i = 0; i < d; ++i) {
                const __m256 w =
                    _mm256_loadu_ps(inter + i * stride + n);
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(_mm256_set1_ps(v0[i]), w));
                a1 = _mm256_add_ps(
                    a1, _mm256_mul_ps(_mm256_set1_ps(v1[i]), w));
                a2 = _mm256_add_ps(
                    a2, _mm256_mul_ps(_mm256_set1_ps(v2[i]), w));
                a3 = _mm256_add_ps(
                    a3, _mm256_mul_ps(_mm256_set1_ps(v3[i]), w));
            }
            const bool full = n + 8 <= bits;
            storeOctet(o0 + n, a0, full, tail);
            storeOctet(o1 + n, a1, full, tail);
            storeOctet(o2 + n, a2, full, tail);
            storeOctet(o3 + n, a3, full, tail);
        }
        for (; n < bits; ++n) {
            float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
            for (int64_t i = 0; i < d; ++i) {
                const float w = inter[i * stride + n];
                s0 += v0[i] * w;
                s1 += v1[i] * w;
                s2 += v2[i] * w;
                s3 += v3[i] * w;
            }
            o0[n] = s0;
            o1[n] = s1;
            o2[n] = s2;
            o3[n] = s3;
        }
    }
    for (; r < nrows; ++r) {
        const float *v = rows + r * d;
        float *o = out + r * bits;
        int n = 0;
        for (; n < vec_end; n += 8) {
            __m256 a = _mm256_setzero_ps();
            for (int64_t i = 0; i < d; ++i) {
                const __m256 w =
                    _mm256_loadu_ps(inter + i * stride + n);
                a = _mm256_add_ps(
                    a, _mm256_mul_ps(_mm256_set1_ps(v[i]), w));
            }
            storeOctet(o + n, a, n + 8 <= bits, tail);
        }
        for (; n < bits; ++n) {
            float s = 0.0f;
            for (int64_t i = 0; i < d; ++i)
                s += v[i] * inter[i * stride + n];
            o[n] = s;
        }
    }
}

void
signPackAvx2(const float *proj, int64_t nrows, int bits,
             int64_t words_per_row, uint64_t *out)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256i tail = lanesBelow(bits & 7);
    for (int64_t r = 0; r < nrows; ++r) {
        const float *p = proj + r * bits;
        uint64_t *w = out + r * words_per_row;
        int64_t n = 0;
        // Each word gathers its octets (8 sign bits per compare +
        // movemask) in a register and is stored once. n steps by 8, so
        // an octet never straddles a word. The row's partial last
        // octet loads with a mask: masked-off lanes read +0.0f, which
        // sets no bit.
        for (int64_t wi = 0; wi < words_per_row; ++wi) {
            const int64_t end = bits < (wi + 1) * 64 ? bits : (wi + 1) * 64;
            uint64_t acc = 0;
            for (; n + 8 <= end; n += 8) {
                const __m256 v = _mm256_loadu_ps(p + n);
                const int m = _mm256_movemask_ps(
                    _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
                acc |= static_cast<uint64_t>(m) << (n & 63);
            }
            if (n < end) {
                const __m256 v = _mm256_maskload_ps(p + n, tail);
                const int m = _mm256_movemask_ps(
                    _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
                acc |= static_cast<uint64_t>(m) << (n & 63);
                n = end;
            }
            w[wi] = acc;
        }
    }
}

/**
 * One signFrame bit group: the projections of bits [b, b + G) for the
 * octet of positions whose tap-0 slots start at src (lanes past
 * `mask` read +0.0f when Tail), folded into the per-lane words `acc`
 * from bit b + G - 1 down. Each lane of a[j] is one position's chain
 * for bit b + j: its first product, then + frame * R per tap, taps
 * ascending. R[b + j][t] is rt[t * stride + j], one broadcast.
 */
template <int G, bool Tail>
__attribute__((always_inline)) inline __m256i
signFrameGroup(const float *src, const int64_t *tapOff, int64_t taps,
               const float *rt, int64_t stride, __m256i mask, __m256i acc)
{
    __m256 a[G];
    {
        const __m256 v = loadOctet(src + tapOff[0], !Tail, mask);
        for (int j = 0; j < G; ++j)
            a[j] = _mm256_mul_ps(v, _mm256_broadcast_ss(rt + j));
    }
    for (int64_t t = 1; t < taps; ++t) {
        const __m256 v = loadOctet(src + tapOff[t], !Tail, mask);
        const float *r = rt + t * stride;
        for (int j = 0; j < G; ++j)
            a[j] = _mm256_add_ps(a[j],
                                 _mm256_mul_ps(v, _mm256_broadcast_ss(r + j)));
    }
    const __m256 zero = _mm256_setzero_ps();
    for (int j = G - 1; j >= 0; --j)
        acc = _mm256_sub_epi32(
            _mm256_add_epi32(acc, acc),
            _mm256_castps_si256(_mm256_cmp_ps(a[j], zero, _CMP_LT_OQ)));
    return acc;
}

/**
 * The words of one octet of positions (tap-0 slots from src, the
 * first `lanes` of them when Tail), written at out, wpr words each.
 */
template <bool Tail>
void
signFrameOctet(const float *src, const int64_t *tapOff, int64_t taps,
               const float *inter, int64_t stride, int bits, int64_t wpr,
               uint64_t *out, int64_t lanes)
{
    const __m256i mask = lanesBelow(lanes);
    for (int64_t wi = 0; wi < wpr; ++wi) {
        // Each 32-bit half of the word is one accumulator per position
        // lane: a compare's all-ones lanes shift in as acc * 2 - m, the
        // half's bits walked from its last down, so bit b lands on bit
        // b % 32.
        __m256i half[2];
        for (int h = 0; h < 2; ++h) {
            const int64_t b0 = wi * 64 + h * 32;
            int64_t b = std::min<int64_t>(bits, b0 + 32);
            __m256i acc = _mm256_setzero_si256();
            for (; b - b0 >= 8; b -= 8)
                acc = signFrameGroup<8, Tail>(src, tapOff, taps,
                                              inter + b - 8, stride, mask,
                                              acc);
            if (b - b0 >= 4) {
                acc = signFrameGroup<4, Tail>(src, tapOff, taps,
                                              inter + b - 4, stride, mask,
                                              acc);
                b -= 4;
            }
            if (b - b0 >= 2) {
                acc = signFrameGroup<2, Tail>(src, tapOff, taps,
                                              inter + b - 2, stride, mask,
                                              acc);
                b -= 2;
            }
            if (b - b0 >= 1)
                acc = signFrameGroup<1, Tail>(src, tapOff, taps,
                                              inter + b - 1, stride, mask,
                                              acc);
            half[h] = acc;
        }
        // Interleave the halves into the 8 positions' 64-bit words.
        const __m256i lo = _mm256_unpacklo_epi32(half[0], half[1]);
        const __m256i hi = _mm256_unpackhi_epi32(half[0], half[1]);
        const __m256i w0 = _mm256_permute2x128_si256(lo, hi, 0x20);
        const __m256i w4 = _mm256_permute2x128_si256(lo, hi, 0x31);
        if (!Tail && wpr == 1) {
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), w0);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 4), w4);
            continue;
        }
        alignas(32) uint64_t w[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(w), w0);
        _mm256_store_si256(reinterpret_cast<__m256i *>(w + 4), w4);
        for (int64_t l = 0; l < lanes; ++l)
            out[l * wpr + wi] = w[l];
    }
}

void
signFrameAvx2(const float *frame, const int64_t *tapOff, int64_t taps,
              int64_t rowStep, int64_t ow, int64_t r0, int64_t r1,
              const float * /*cols*/, const float *inter, int inter_stride,
              int bits, int64_t words_per_row, uint64_t *out)
{
    // Octets of positions walk each output row the range covers; a
    // row's last octet (or the range's) may be partial and loads
    // masked. A chain starts at its first product instead of
    // +0 + that product: the two differ only when the product is -0
    // (+0 against -0), and two sums that differ only in the sign of a
    // zero stay equal or both zero through every later add, which
    // p < 0.0f reads alike.
    for (int64_t r = r0; r < r1;) {
        const int64_t y = r / ow;
        const int64_t end = std::min(r1, (y + 1) * ow);
        const float *row = frame + y * (rowStep - ow);
        for (; r + 8 <= end; r += 8)
            signFrameOctet<false>(row + r, tapOff, taps, inter, inter_stride,
                                  bits, words_per_row,
                                  out + (r - r0) * words_per_row, 8);
        if (r < end) {
            signFrameOctet<true>(row + r, tapOff, taps, inter, inter_stride,
                                 bits, words_per_row,
                                 out + (r - r0) * words_per_row, end - r);
            r = end;
        }
    }
}

void
copySpanAvx2(float *dst, const float *src, int64_t n)
{
    // Same zero-length guard as copySpanScalar (memcpy needs non-null
    // pointers even for zero bytes).
    if (n > 0)
        std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void
gatherSpanAvx2(float *dst, int64_t dstPitch, int64_t dstPlane,
               const float *src, int64_t srcPlane, const int32_t *idx,
               int64_t idxPitch, int64_t rows, int64_t n, int64_t planes)
{
    // Each index octet is loaded and checked once for a block of up to
    // kPlanes planes: an octet whose indices run consecutively (a
    // stretch with no forwarded row) is one load per plane, any other
    // one hardware gather per plane. A partial last octet gathers and
    // stores masked. Blocks bound the streams in flight: all 64 planes
    // of a 32x32 layer at once (4 KB apart, one L1 set) made its dX
    // replay slower than one gather per row.
    constexpr int64_t kPlanes = 8;
    const __m256i step = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i tail = lanesBelow(n % 8);
    for (int64_t p0 = 0; p0 < planes; p0 += kPlanes) {
        const int64_t p1 = std::min(planes, p0 + kPlanes);
        for (int64_t y = 0; y < rows; ++y) {
            const int32_t *ix_row = idx + y * idxPitch;
            float *d_row = dst + y * dstPitch;
            int64_t i = 0;
            for (; i + 8 <= n; i += 8) {
                const __m256i ix = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(ix_row + i));
                const int32_t first = ix_row[i];
                const __m256i run =
                    _mm256_add_epi32(_mm256_set1_epi32(first), step);
                if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(ix, run)) ==
                    -1) {
                    for (int64_t p = p0; p < p1; ++p)
                        _mm256_storeu_ps(
                            d_row + p * dstPlane + i,
                            _mm256_loadu_ps(src + p * srcPlane + first));
                } else {
                    for (int64_t p = p0; p < p1; ++p)
                        _mm256_storeu_ps(
                            d_row + p * dstPlane + i,
                            _mm256_i32gather_ps(src + p * srcPlane, ix, 4));
                }
            }
            if (i < n) {
                const __m256i ix = _mm256_maskload_epi32(ix_row + i, tail);
                for (int64_t p = p0; p < p1; ++p)
                    _mm256_maskstore_ps(
                        d_row + p * dstPlane + i, tail,
                        _mm256_mask_i32gather_ps(
                            _mm256_setzero_ps(), src + p * srcPlane, ix,
                            _mm256_castsi256_ps(tail), 4));
            }
        }
    }
}

/**
 * dst[0..n) = src[0..n) (add: dst[e] += src[e]) in octets, then one
 * quad, then single floats — elementwise, as the scalar loops.
 */
template <bool Add>
inline void
moveRow(float *dst, const float *src, int64_t n)
{
    int64_t e = 0;
    for (; e + 8 <= n; e += 8) {
        __m256 v = _mm256_loadu_ps(src + e);
        if (Add)
            v = _mm256_add_ps(_mm256_loadu_ps(dst + e), v);
        _mm256_storeu_ps(dst + e, v);
    }
    if (e + 4 <= n) {
        __m128 v = _mm_loadu_ps(src + e);
        if (Add)
            v = _mm_add_ps(_mm_loadu_ps(dst + e), v);
        _mm_storeu_ps(dst + e, v);
        e += 4;
    }
    for (; e < n; ++e)
        dst[e] = Add ? dst[e] + src[e] : src[e];
}

int64_t
groupSumsAvx2(const float *src, int64_t cols, const int32_t *owner,
              int64_t rows, int32_t *scratch, float *sums)
{
    int32_t *list = scratch, *slot_of = scratch + rows;
    const int64_t groups = groupLists(owner, rows, list, slot_of);
    for (int64_t j = 0; j < groups; ++j)
        moveRow<false>(sums + j * cols, src + list[j] * cols, cols);
    for (int64_t j = rows - 1; j >= groups; --j) {
        const int32_t r = list[j];
        moveRow<true>(sums + slot_of[owner[r]] * cols, src + r * cols, cols);
    }
    return groups;
}

/**
 * One ownerValues tile: R owner rows (patches at p[r] + tapOff[t]) x C
 * filter octets from filter f, the last octet masked to `tail` when
 * Tail. Each accumulator is one (row, filter) chain: +0, then + w * x
 * per tap, taps ascending.
 */
template <int R, int C, bool Tail>
inline void
ownerValuesTile(const float *const *p, float *const *v,
                const int64_t *tapOff, int64_t d, const float *w,
                int64_t filters, int64_t f, __m256i tail)
{
    __m256 a[R][C];
    for (int r = 0; r < R; ++r)
        for (int c = 0; c < C; ++c)
            a[r][c] = _mm256_setzero_ps();
    for (int64_t t = 0; t < d; ++t) {
        const float *wt = w + t * filters + f;
        const int64_t off = tapOff[t];
        __m256 wv[C];
        for (int c = 0; c < C; ++c)
            wv[c] = Tail && c == C - 1 ? _mm256_maskload_ps(wt + 8 * c, tail)
                                       : _mm256_loadu_ps(wt + 8 * c);
        for (int r = 0; r < R; ++r) {
            const __m256 x = _mm256_broadcast_ss(p[r] + off);
            for (int c = 0; c < C; ++c)
                a[r][c] = _mm256_add_ps(a[r][c], _mm256_mul_ps(wv[c], x));
        }
    }
    for (int r = 0; r < R; ++r)
        for (int c = 0; c < C; ++c) {
            if (Tail && c == C - 1)
                _mm256_maskstore_ps(v[r] + f + 8 * c, tail, a[r][c]);
            else
                _mm256_storeu_ps(v[r] + f + 8 * c, a[r][c]);
        }
}

/** ownerValues of R rows over every filter octet, two at a time. */
template <int R>
inline void
ownerValuesRows(const float *const *p, float *const *v,
                const int64_t *tapOff, int64_t d, const float *w,
                int64_t filters, __m256i tail)
{
    int64_t f = 0;
    for (; f + 16 <= filters; f += 16)
        ownerValuesTile<R, 2, false>(p, v, tapOff, d, w, filters, f, tail);
    const int64_t left = filters - f;
    if (left > 8)
        ownerValuesTile<R, 2, true>(p, v, tapOff, d, w, filters, f, tail);
    else if (left == 8)
        ownerValuesTile<R, 1, false>(p, v, tapOff, d, w, filters, f, tail);
    else if (left > 0)
        ownerValuesTile<R, 1, true>(p, v, tapOff, d, w, filters, f, tail);
}

void
ownerValuesAvx2(const float *frame, const int64_t *base,
                const int64_t *tapOff, int64_t d, const int32_t *rows,
                int64_t count, const float *w, int64_t filters, float *vals)
{
    const __m256i tail = lanesBelow(filters & 7 ? filters & 7 : 8);
    int64_t j = 0;
    for (; j + 4 <= count; j += 4) {
        const float *p[4];
        float *v[4];
        for (int r = 0; r < 4; ++r) {
            p[r] = frame + base[rows[j + r]];
            v[r] = vals + static_cast<int64_t>(rows[j + r]) * filters;
        }
        ownerValuesRows<4>(p, v, tapOff, d, w, filters, tail);
    }
    for (; j < count; ++j) {
        const float *p[1] = {frame + base[rows[j]]};
        float *v[1] = {vals + static_cast<int64_t>(rows[j]) * filters};
        ownerValuesRows<1>(p, v, tapOff, d, w, filters, tail);
    }
}

/** In-register transpose of the 8x8 tile r[0..8). */
inline void
transpose8(__m256 *r)
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

void
ownerScatterAvx2(const float *vals, int64_t valsPitch, int64_t filters,
                 const int32_t *owner, int64_t n, float *out,
                 int64_t outPitch)
{
    // Tile: 8 outputs i x 8 filters. Rows past n load as zero and
    // their lanes are neither loaded nor stored in `out`; filters past
    // the last octet's end load masked and are not added anywhere.
    for (int64_t i = 0; i < n; i += 8) {
        const int64_t rows = n - i < 8 ? n - i : 8;
        const __m256i row_mask = lanesBelow(rows);
        for (int64_t f = 0; f < filters; f += 8) {
            const int64_t cols = filters - f < 8 ? filters - f : 8;
            const __m256i col_mask = lanesBelow(cols);
            __m256 r[8];
            for (int k = 0; k < 8; ++k)
                r[k] = k < rows ? _mm256_maskload_ps(
                                      vals + owner[i + k] * valsPitch + f,
                                      col_mask)
                                : _mm256_setzero_ps();
            transpose8(r);
            for (int64_t q = 0; q < cols; ++q) {
                float *o = out + (f + q) * outPitch + i;
                if (rows == 8)
                    _mm256_storeu_ps(
                        o, _mm256_add_ps(_mm256_loadu_ps(o), r[q]));
                else
                    _mm256_maskstore_ps(
                        o, row_mask,
                        _mm256_add_ps(_mm256_maskload_ps(o, row_mask),
                                      r[q]));
            }
        }
    }
}

/**
 * One ownerWeightMul group: TN taps from t0 x C filter octets from f
 * stay in registers while the owners go by in ascending order; with
 * Tail the last octet holds only its first `lanes` filters and loads
 * and stores masked. Each owner's sums octets load once for all TN
 * taps, and each patch value broadcasts once for all C octets.
 */
template <int C, int TN, bool Tail>
void
ownerWeightMulGroup(const float *sums, int64_t filters, int64_t owners,
                    const float *frame, const int64_t *base,
                    const int64_t *tapOff, int64_t t0, int64_t f,
                    int64_t lanes, float *acc)
{
    const __m256i mask = lanesBelow(lanes);
    __m256 a[TN][C];
    int64_t off[TN];
    for (int q = 0; q < TN; ++q) {
        off[q] = tapOff[t0 + q];
        for (int c = 0; c < C; ++c)
            a[q][c] = loadOctet(acc + (t0 + q) * filters + f + 8 * c,
                                !Tail || c < C - 1, mask);
    }
    for (int64_t j = 0; j < owners; ++j) {
        __m256 s[C];
        for (int c = 0; c < C; ++c)
            s[c] = loadOctet(sums + j * filters + f + 8 * c,
                             !Tail || c < C - 1, mask);
        const float *p = frame + base[j];
        for (int q = 0; q < TN; ++q) {
            const __m256 x = _mm256_broadcast_ss(p + off[q]);
            for (int c = 0; c < C; ++c)
                a[q][c] = _mm256_add_ps(a[q][c], _mm256_mul_ps(s[c], x));
        }
    }
    for (int q = 0; q < TN; ++q)
        for (int c = 0; c < C; ++c)
            storeOctet(acc + (t0 + q) * filters + f + 8 * c, a[q][c],
                       !Tail || c < C - 1, mask);
}

using WeightMulGroup = void (*)(const float *, int64_t, int64_t,
                                const float *, const int64_t *,
                                const int64_t *, int64_t, int64_t, int64_t,
                                float *);

/**
 * Taps one ownerWeightMul group of C octets keeps in registers, at
 * most: C x taps accumulators, C sums and a broadcast fit the sixteen
 * vector registers.
 */
constexpr int kGroupTaps[3] = {9, 5, 3};

/** Groups of C octets, [Tail][taps - 1]. */
template <int C, int... N>
constexpr std::array<std::array<WeightMulGroup, sizeof...(N)>, 2>
weightMulGroups(std::integer_sequence<int, N...>)
{
    return {{{{&ownerWeightMulGroup<C, N + 1, false>...}},
             {{&ownerWeightMulGroup<C, N + 1, true>...}}}};
}

void
ownerWeightMulAvx2(const float *sums, int64_t filters, int64_t owners,
                   const float *frame, const int64_t *base,
                   const int64_t *tapOff, int64_t taps, float *acc)
{
    static constexpr auto kOne = weightMulGroups<1>(
        std::make_integer_sequence<int, kGroupTaps[0]>{});
    static constexpr auto kTwo = weightMulGroups<2>(
        std::make_integer_sequence<int, kGroupTaps[1]>{});
    static constexpr auto kThree = weightMulGroups<3>(
        std::make_integer_sequence<int, kGroupTaps[2]>{});
    if (owners <= 0 || taps <= 0)
        return;
    // Filter octets go three at a time, then two or one; within each
    // run the taps split into near-equal groups of at most
    // kGroupTaps[C - 1], so a 3x3 kernel is three groups of 3 taps for
    // three octets and one group of 9 for one.
    const int64_t octets = (filters + 7) / 8;
    for (int64_t o = 0; o < octets;) {
        const int64_t c = std::min<int64_t>(3, octets - o);
        const int64_t f = o * 8;
        const int64_t lanes = filters - (f + 8 * (c - 1));
        const size_t tail = lanes < 8;
        const int64_t groups =
            (taps + kGroupTaps[c - 1] - 1) / kGroupTaps[c - 1];
        int64_t t0 = 0;
        for (int64_t g = 0; g < groups; ++g) {
            const size_t tn =
                static_cast<size_t>(taps / groups + (g < taps % groups));
            const WeightMulGroup run = c == 3   ? kThree[tail][tn - 1]
                                       : c == 2 ? kTwo[tail][tn - 1]
                                                : kOne[tail][tn - 1];
            run(sums, filters, owners, frame, base, tapOff, t0, f, lanes,
                acc);
            t0 += static_cast<int64_t>(tn);
        }
        o += c;
    }
}

/** First row and column of one column octet of a plane. */
struct Slot
{
    int64_t y, x;
};

/**
 * The column octets of a (rows, cols) plane, whole octets first: slot
 * k < whole covers columns [x, x + 8) of its row; slot k >= whole is
 * row k - whole's partial last octet, its first cols % 8 lanes.
 */
struct OctetSlots
{
    int64_t perRow, whole, total;

    OctetSlots(int64_t rows, int64_t cols)
        : perRow(cols / 8), whole(rows * perRow),
          total(whole + (cols % 8 != 0 ? rows : 0))
    {
    }

    Slot operator[](int64_t k) const
    {
        return k < whole ? Slot{k / perRow, k % perRow * 8}
                         : Slot{k - whole, perRow * 8};
    }
};

/**
 * Output slots one convForward tile holds per filter: at least four
 * independent chains per tile, so the adds never wait on each other.
 * One filter (the dX replay's one-channel call) holds eight, so each
 * tap's broadcast and offset load serve eight octets: in-process at
 * the 12->12 16x16 and 24->24 8x8 shapes, four read 0.96-1.01x the
 * cycles of the one-channel dX body this call replaced, eight
 * 0.90-0.92x.
 */
constexpr int
forwardSlots(int filters)
{
    return filters == 1 ? 8 : filters <= 2 ? 4 : 2;
}

/**
 * One convForward tile: F filters from `w` x P output slots (frame
 * offsets in[s], output offsets out[s]), each slot's first `lanes`
 * columns when Tail. Each accumulator is one output's chain — its bias
 * or +0, then + in * w per tap, taps ascending — and the first `live`
 * slots are stored once at the end. The extra slots of a last, short
 * tile repeat its last slot.
 */
template <int F, int P, bool Tail>
inline void
convForwardTile(const float *frames, const int64_t *tapOff, int64_t taps,
                const float *w, const float *bias, const int64_t *in,
                float *out, int64_t outPitch, const int64_t *outOff,
                int live, int64_t lanes)
{
    const __m256i mask = lanesBelow(lanes);
    __m256 a[F][P];
    for (int q = 0; q < F; ++q) {
        const __m256 b =
            bias ? _mm256_set1_ps(bias[q]) : _mm256_setzero_ps();
        for (int s = 0; s < P; ++s)
            a[q][s] = b;
    }
    // One frame pointer per slot and one offset per tap: with the tap's
    // offset added to each slot's in the loop, GCC spilled the offsets
    // of the 8-slot tile and reloaded them every tap.
    const float *src[P];
    for (int s = 0; s < P; ++s)
        src[s] = frames + in[s];
    for (int64_t t = 0; t < taps; ++t) {
        const int64_t off = tapOff[t];
        __m256 v[P];
        for (int s = 0; s < P; ++s)
            v[s] = loadOctet(src[s] + off, !Tail, mask);
        for (int q = 0; q < F; ++q) {
            const __m256 wv = _mm256_broadcast_ss(w + q * taps + t);
            for (int s = 0; s < P; ++s)
                a[q][s] = _mm256_add_ps(a[q][s], _mm256_mul_ps(v[s], wv));
        }
    }
    for (int q = 0; q < F; ++q)
        for (int s = 0; s < P; ++s)
            if (s < live)
                storeOctet(out + q * outPitch + outOff[s], a[q][s], !Tail,
                           mask);
}

/** convForward of F filters over the output slots [k0, k1). */
template <int F, bool Tail>
void
convForwardFilters(const float *frames, const int64_t *tapOff, int64_t taps,
                   int64_t rowStep, const float *w, const float *bias,
                   int64_t ow, const OctetSlots &slots, int64_t k0,
                   int64_t k1, float *out, int64_t outPitch)
{
    constexpr int P = forwardSlots(F);
    for (int64_t k = k0; k < k1; k += P) {
        const int live = static_cast<int>(k1 - k < P ? k1 - k : P);
        int64_t in[P], out_off[P];
        for (int s = 0; s < P; ++s) {
            const Slot sl = slots[k + (s < live ? s : live - 1)];
            in[s] = sl.y * rowStep + sl.x;
            out_off[s] = sl.y * ow + sl.x;
        }
        convForwardTile<F, P, Tail>(frames, tapOff, taps, w, bias, in, out,
                                    outPitch, out_off, live, ow % 8);
    }
}

using ForwardFilters = void (*)(const float *, const int64_t *, int64_t,
                                int64_t, const float *, const float *,
                                int64_t, const OctetSlots &, int64_t,
                                int64_t, float *, int64_t);

/** Filters one convForward tile holds, at most. */
constexpr int kMaxTileFilters = 4;

void
convForwardAvx2(const float *frames, const int64_t *tapOff, int64_t taps,
                int64_t rowStep, const float *w, const float *bias,
                int64_t filters, int64_t oh, int64_t ow, float *out,
                int64_t outPitch)
{
    // [partial octet][filters - 1]
    static constexpr ForwardFilters kFilters[2][kMaxTileFilters] = {
        {&convForwardFilters<1, false>, &convForwardFilters<2, false>,
         &convForwardFilters<3, false>, &convForwardFilters<4, false>},
        {&convForwardFilters<1, true>, &convForwardFilters<2, true>,
         &convForwardFilters<3, true>, &convForwardFilters<4, true>}};
    const OctetSlots slots(oh, ow);
    for (int64_t f = 0; f < filters; f += kMaxTileFilters) {
        const int64_t fn =
            filters - f < kMaxTileFilters ? filters - f : kMaxTileFilters;
        const float *wf = w + f * taps;
        const float *bf = bias ? bias + f : nullptr;
        float *of = out + f * outPitch;
        kFilters[0][fn - 1](frames, tapOff, taps, rowStep, wf, bf, ow, slots,
                            0, slots.whole, of, outPitch);
        kFilters[1][fn - 1](frames, tapOff, taps, rowStep, wf, bf, ow, slots,
                            slots.whole, slots.total, of, outPitch);
    }
}

const KernelOps kAvx2Ops = {
    "avx2",          // name
    true,            // wantsInterleaved
    projectRowsAvx2, // projectRows
    signPackAvx2,    // signPack
    signFrameAvx2,   // signFrame
    copySpanAvx2,    // copySpan
    gatherSpanAvx2,  // gatherSpan
    groupSumsAvx2,   // groupSums
    ownerValuesAvx2,    // ownerValues
    ownerScatterAvx2,   // ownerScatter
    ownerWeightMulAvx2, // ownerWeightMul
    convForwardAvx2,    // convForward
};

bool
cpuHasAvx2()
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

} // namespace

const KernelOps *
avx2Ops()
{
    static const bool available = cpuHasAvx2();
    return available ? &kAvx2Ops : nullptr;
}

} // namespace kernels
} // namespace mercury

#else // !__AVX2__

namespace mercury {
namespace kernels {

const KernelOps *
avx2Ops()
{
    return nullptr;
}

} // namespace kernels
} // namespace mercury

#endif // __AVX2__
