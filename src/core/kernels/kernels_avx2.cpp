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
 *  - the span kernels are elementwise; tails fall back to the scalar
 *    loops, which compute the same expression per element.
 *  - extractPatches moves data only; its masked rows write exactly the
 *    values and zeros of the scalar body's spans.
 */

#include "core/kernels/kernels.hpp"

#ifdef __AVX2__

#include <cstring>
#include <immintrin.h>

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

void
copySpanAvx2(float *dst, const float *src, int64_t n)
{
    // Same zero-length guard as copySpanScalar (memcpy needs non-null
    // pointers even for zero bytes).
    if (n > 0)
        std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void
addSpanAvx2(float *dst, const float *src, int64_t n)
{
    int64_t e = 0;
    for (; e + 8 <= n; e += 8) {
        const __m256 s = _mm256_loadu_ps(src + e);
        const __m256 d8 = _mm256_loadu_ps(dst + e);
        _mm256_storeu_ps(dst + e, _mm256_add_ps(d8, s));
    }
    for (; e < n; ++e)
        dst[e] += src[e];
}

void
extractPatchesAvx2(const float *plane, int64_t in_h, int64_t in_w,
                   int64_t ow, int64_t stride, int64_t pad, int64_t k,
                   int64_t r0, int64_t r1, float *rows)
{
    // Patch extraction is pure data movement, so the outputs are the
    // scalar body's by construction. For k <= 8 a kernel row is one
    // masked load (lanes [kx0, kx1) of the plane row; the rest load
    // 0, which is the zero fill of the clipped columns) and one
    // masked store of k lanes — no libc call per row. Positions
    // advance by counters, not a division per row, and the next
    // position's first source row is prefetched, hiding the strided
    // plane walk of the fused block path. A kernel row wider than a
    // vector takes the scalar spans.
    if (k > 8) {
        scalarOps().extractPatches(plane, in_h, in_w, ow, stride, pad, k,
                                   r0, r1, rows);
        return;
    }
    const int64_t d = k * k;
    const __m256i store_mask = lanesBelow(k);
    const __m256 zero = _mm256_setzero_ps();
    int64_t y = r0 / ow, x = r0 % ow;
    for (int64_t r = r0; r < r1; ++r) {
        const int64_t iy0 = y * stride - pad;
        const int64_t ix0 = x * stride - pad;
        if (++x == ow) {
            x = 0;
            ++y;
        }
        if (r + 1 < r1) {
            const int64_t py = y * stride - pad;
            const int64_t px = x * stride - pad;
            if (py >= 0 && py < in_h)
                _mm_prefetch(reinterpret_cast<const char *>(
                                 plane + py * in_w + (px < 0 ? 0 : px)),
                             _MM_HINT_T0);
        }
        // Lane 0 of the first in-plane kernel row reads plane[at]: a
        // row where that lies before the plane (the top-left corner)
        // takes the scalar spans instead of forming the address.
        if ((iy0 > 0 ? iy0 : 0) * in_w + ix0 < 0) {
            scalarOps().extractPatches(plane, in_h, in_w, ow, stride, pad,
                                       k, r, r + 1, rows);
            continue;
        }
        int64_t kx0 = ix0 < 0 ? -ix0 : 0;
        int64_t kx1 = in_w - ix0 < k ? in_w - ix0 : k;
        if (kx1 < kx0)
            kx1 = kx0;
        const __m256i load_mask = _mm256_andnot_si256(lanesBelow(kx0),
                                                      lanesBelow(kx1));
        float *dst = rows + r * d;
        for (int64_t ky = 0; ky < k; ++ky, dst += k) {
            const int64_t iy = iy0 + ky;
            const bool inside = iy >= 0 && iy < in_h && kx1 > kx0;
            _mm256_maskstore_ps(
                dst, store_mask,
                inside ? _mm256_maskload_ps(plane + iy * in_w + ix0,
                                            load_mask)
                       : zero);
        }
    }
}

const KernelOps kAvx2Ops = {
    "avx2",          // name
    true,            // wantsInterleaved
    projectRowsAvx2, // projectRows
    signPackAvx2,    // signPack
    copySpanAvx2,    // copySpan
    addSpanAvx2,     // addSpan
    extractPatchesAvx2, // extractPatches
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
