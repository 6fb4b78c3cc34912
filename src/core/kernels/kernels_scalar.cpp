/**
 * @file
 * Scalar reference bodies of the kernel layer. These are the
 * bit-identity anchors: the AVX2 bodies must reproduce every output
 * of these loops exactly (see kernels.hpp for how). The projection
 * body is the natural per-(row, filter) dot product over the
 * column-major matrix — the same element order RPQEngine::project()
 * walks — so it needs no interleaved mirror.
 */

#include "core/kernels/kernels.hpp"

#include <cstring>

namespace mercury {
namespace kernels {
namespace {

void
projectRowsScalar(const float *rows, int64_t nrows, int64_t d,
                  const float *cols, const float * /*inter*/,
                  int /*inter_stride*/, int bits, float *out)
{
    for (int64_t r = 0; r < nrows; ++r) {
        const float *v = rows + r * d;
        float *acc = out + r * bits;
        for (int n = 0; n < bits; ++n) {
            const float *col = cols + static_cast<int64_t>(n) * d;
            float a = 0.0f;
            for (int64_t i = 0; i < d; ++i)
                a += v[i] * col[i];
            acc[n] = a;
        }
    }
}

void
signPackScalar(const float *proj, int64_t nrows, int bits,
               int64_t words_per_row, uint64_t *out)
{
    for (int64_t r = 0; r < nrows; ++r) {
        const float *p = proj + r * bits;
        uint64_t *w = out + r * words_per_row;
        std::memset(w, 0, static_cast<size_t>(words_per_row) *
                              sizeof(uint64_t));
        for (int n = 0; n < bits; ++n) {
            if (p[n] < 0.0f)
                w[n >> 6] |= 1ull << (n & 63);
        }
    }
}

void
copySpanScalar(float *dst, const float *src, int64_t n)
{
    // memcpy's pointers must be non-null even for zero bytes, and an
    // empty span may come from an empty vector's data().
    if (n > 0)
        std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void
addSpanScalar(float *dst, const float *src, int64_t n)
{
    for (int64_t e = 0; e < n; ++e)
        dst[e] += src[e];
}

void
extractPatchesScalar(const float *plane, int64_t in_h, int64_t in_w,
                     int64_t ow, int64_t stride, int64_t pad, int64_t k,
                     int64_t r0, int64_t r1, float *rows)
{
    const int64_t d = k * k;
    for (int64_t r = r0; r < r1; ++r) {
        const int64_t iy0 = (r / ow) * stride - pad;
        const int64_t ix0 = (r % ow) * stride - pad;
        // The in-bounds kx window is the same for every kernel row of
        // this position; clip it once.
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

void
ownerValuesScalar(const float *patches, int64_t d, const int32_t *rows,
                  int64_t count, const float *w, int64_t filters,
                  float *vals)
{
    for (int64_t j = 0; j < count; ++j) {
        const int64_t r = rows[j];
        float *val = vals + r * filters;
        const float *row = patches + r * d;
        for (int64_t f = 0; f < filters; ++f)
            val[f] = 0.0f;
        for (int64_t t = 0; t < d; ++t)
            for (int64_t f = 0; f < filters; ++f)
                val[f] += w[t * filters + f] * row[t];
    }
}

void
ownerScatterScalar(const float *vals, int64_t valsPitch, int64_t filters,
                   const int32_t *owner, int64_t n, float *out,
                   int64_t outPitch)
{
    for (int64_t f = 0; f < filters; ++f) {
        float *o = out + f * outPitch;
        for (int64_t i = 0; i < n; ++i)
            o[i] += vals[owner[i] * valsPitch + f];
    }
}

void
ownerWeightMulScalar(const float *sums, int64_t filters, int64_t owners,
                     const float *frame, const int64_t *base,
                     const int64_t *tapOff, int64_t taps, float *acc)
{
    for (int64_t j = 0; j < owners; ++j) {
        const float *s = sums + j * filters;
        const float *p = frame + base[j];
        for (int64_t t = 0; t < taps; ++t) {
            const float x = p[tapOff[t]];
            float *a = acc + t * filters;
            for (int64_t f = 0; f < filters; ++f)
                a[f] += s[f] * x;
        }
    }
}

const KernelOps kScalarOps = {
    "scalar",          // name
    false,             // wantsInterleaved
    projectRowsScalar, // projectRows
    signPackScalar,    // signPack
    copySpanScalar,    // copySpan
    addSpanScalar,     // addSpan
    extractPatchesScalar, // extractPatches
    ownerValuesScalar,    // ownerValues
    ownerScatterScalar,   // ownerScatter
    ownerWeightMulScalar, // ownerWeightMul
};

} // namespace

const KernelOps &
scalarOps()
{
    return kScalarOps;
}

} // namespace kernels
} // namespace mercury
