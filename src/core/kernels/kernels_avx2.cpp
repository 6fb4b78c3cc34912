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
 *  - signPack compares with _CMP_LT_OQ against +0.0f: -0.0f < 0.0f
 *    is false, exactly like the scalar `p < 0.0f` (all-zero padding
 *    rows produce -0.0f projections, which must not set bits — a raw
 *    sign-bit movemask would get this wrong).
 *  - the span kernels are elementwise; tails fall back to the scalar
 *    loops, which compute the same expression per element.
 */

#include "core/kernels/kernels.hpp"

#ifdef __AVX2__

#include <cstring>
#include <immintrin.h>

namespace mercury {
namespace kernels {
namespace {

void
projectRowsAvx2(const float *rows, int64_t nrows, int64_t d,
                const float * /*cols*/, const float *inter,
                int inter_stride, int bits, float *out)
{
    const int64_t stride = inter_stride;
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
        for (; n + 8 <= bits; n += 8) {
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
            _mm256_storeu_ps(o0 + n, a0);
            _mm256_storeu_ps(o1 + n, a1);
            _mm256_storeu_ps(o2 + n, a2);
            _mm256_storeu_ps(o3 + n, a3);
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
        for (; n + 8 <= bits; n += 8) {
            __m256 a = _mm256_setzero_ps();
            for (int64_t i = 0; i < d; ++i) {
                const __m256 w =
                    _mm256_loadu_ps(inter + i * stride + n);
                a = _mm256_add_ps(
                    a, _mm256_mul_ps(_mm256_set1_ps(v[i]), w));
            }
            _mm256_storeu_ps(o + n, a);
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
    for (int64_t r = 0; r < nrows; ++r) {
        const float *p = proj + r * bits;
        uint64_t *w = out + r * words_per_row;
        std::memset(w, 0, static_cast<size_t>(words_per_row) *
                              sizeof(uint64_t));
        int n = 0;
        // 8 sign bits per compare+movemask; n is a multiple of 8, so
        // an octet never straddles a 64-bit word boundary.
        for (; n + 8 <= bits; n += 8) {
            const __m256 v = _mm256_loadu_ps(p + n);
            const int m = _mm256_movemask_ps(
                _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
            w[n >> 6] |= static_cast<uint64_t>(m) << (n & 63);
        }
        for (; n < bits; ++n) {
            if (p[n] < 0.0f)
                w[n >> 6] |= 1ull << (n & 63);
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
    // Patch extraction is pure data movement (clipped memcpy spans of
    // typically k <= 7 floats), so there is nothing to widen: the
    // AVX2 table only adds a software prefetch of the next position's
    // first source row, hiding the strided plane walk of the fused
    // block path. The copy/zero structure matches the scalar body
    // exactly, so the outputs are identical by construction.
    const int64_t d = k * k;
    for (int64_t r = r0; r < r1; ++r) {
        const int64_t iy0 = (r / ow) * stride - pad;
        const int64_t ix0 = (r % ow) * stride - pad;
        if (r + 1 < r1) {
            const int64_t py = ((r + 1) / ow) * stride - pad;
            const int64_t px = ((r + 1) % ow) * stride - pad;
            if (py >= 0 && py < in_h)
                _mm_prefetch(reinterpret_cast<const char *>(
                                 plane + py * in_w + (px < 0 ? 0 : px)),
                             _MM_HINT_T0);
        }
        int64_t kx0 = ix0 < 0 ? -ix0 : 0;
        int64_t kx1 = in_w - ix0 < k ? in_w - ix0 : k;
        if (kx1 < kx0)
            kx1 = kx0;
        float *dst = rows + r * d;
        for (int64_t ky = 0; ky < k; ++ky, dst += k) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= in_h) {
                std::memset(dst, 0, static_cast<size_t>(k) * sizeof(float));
                continue;
            }
            if (kx0 > 0)
                std::memset(dst, 0,
                            static_cast<size_t>(kx0) * sizeof(float));
            if (kx1 > kx0)
                std::memcpy(dst + kx0, plane + iy * in_w + ix0 + kx0,
                            static_cast<size_t>(kx1 - kx0) * sizeof(float));
            if (kx1 < k)
                std::memset(dst + kx1, 0,
                            static_cast<size_t>(k - kx1) * sizeof(float));
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
