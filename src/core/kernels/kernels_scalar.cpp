/**
 * @file
 * Scalar reference bodies of the kernel layer. These are the
 * bit-identity anchors: the AVX2 bodies must reproduce every output
 * of these loops exactly (see kernels.hpp for how). The projection
 * body is the natural per-(row, filter) dot product over the
 * column-major matrix — the same element order RPQEngine::project()
 * walks — so it needs no interleaved mirror. The exact conv bodies
 * run one mul-add over whole output (or input-cell) planes per tap,
 * so every output keeps its chain and -O3 vectorizes the planes.
 */

#include "core/kernels/kernels.hpp"
#include "core/kernels/group_lists.hpp"

#include <algorithm>
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
signPackColumnsScalar(const float *proj, int64_t pitch, int64_t n, int bits,
                      int64_t words_per_row, uint64_t *out)
{
    if (n > 0)
        std::memset(out, 0,
                    static_cast<size_t>(n * words_per_row) *
                        sizeof(uint64_t));
    for (int b = 0; b < bits; ++b) {
        const float *p = proj + b * pitch;
        uint64_t *w = out + (b >> 6);
        for (int64_t i = 0; i < n; ++i)
            w[i * words_per_row] |= static_cast<uint64_t>(p[i] < 0.0f)
                                    << (b & 63);
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
gatherSpanScalar(float *dst, int64_t dstPitch, int64_t dstPlane,
                 const float *src, int64_t srcPlane, const int32_t *idx,
                 int64_t idxPitch, int64_t rows, int64_t n, int64_t planes)
{
    for (int64_t p = 0; p < planes; ++p)
        for (int64_t y = 0; y < rows; ++y)
            for (int64_t i = 0; i < n; ++i)
                dst[p * dstPlane + y * dstPitch + i] =
                    src[p * srcPlane + idx[y * idxPitch + i]];
}

int64_t
groupSumsScalar(const float *src, int64_t cols, const int32_t *owner,
                int64_t rows, int32_t *scratch, float *sums)
{
    int32_t *list = scratch, *slot_of = scratch + rows;
    const int64_t groups = groupLists(owner, rows, list, slot_of);
    for (int64_t j = 0; j < groups; ++j)
        std::copy(src + list[j] * cols, src + (list[j] + 1) * cols,
                  sums + j * cols);
    for (int64_t j = rows - 1; j >= groups; --j) {
        const int32_t r = list[j];
        float *dst = sums + slot_of[owner[r]] * cols;
        const float *row = src + r * cols;
        for (int64_t e = 0; e < cols; ++e)
            dst[e] += row[e];
    }
    return groups;
}

void
ownerValuesScalar(const float *frame, const int64_t *base,
                  const int64_t *tapOff, int64_t d, const int32_t *rows,
                  int64_t count, const float *w, int64_t filters,
                  float *vals)
{
    for (int64_t j = 0; j < count; ++j) {
        const int64_t r = rows[j];
        float *val = vals + r * filters;
        const float *p = frame + base[r];
        for (int64_t f = 0; f < filters; ++f)
            val[f] = 0.0f;
        for (int64_t t = 0; t < d; ++t) {
            const float x = p[tapOff[t]];
            for (int64_t f = 0; f < filters; ++f)
                val[f] += w[t * filters + f] * x;
        }
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

/**
 * dst[y][i] += src[y][i] * w over `rows` rows of n floats, with row
 * pitches dstPitch and srcPitch: a rounded multiply, then a rounded
 * add, per element. The one mul-add body of the exact conv loops;
 * dst and src never overlap, and the rows vectorize at the baseline
 * ISA.
 */
inline void
mulAddRows(float *__restrict dst, int64_t dstPitch,
           const float *__restrict src, int64_t srcPitch, int64_t rows,
           int64_t n, float w)
{
    for (int64_t y = 0; y < rows; ++y)
        for (int64_t i = 0; i < n; ++i)
            dst[y * dstPitch + i] += src[y * srcPitch + i] * w;
}

void
convForwardScalar(const float *frames, const int64_t *tapOff, int64_t taps,
                  int64_t rowStep, const float *w, const float *bias,
                  int64_t filters, int64_t oh, int64_t ow, float *out,
                  int64_t outPitch)
{
    for (int64_t f = 0; f < filters; ++f) {
        float *o = out + f * outPitch;
        std::fill(o, o + oh * ow, bias ? bias[f] : 0.0f);
        const float *wt = w + f * taps;
        for (int64_t t = 0; t < taps; ++t)
            mulAddRows(o, ow, frames + tapOff[t], rowStep, oh, ow, wt[t]);
    }
}

void
convBackwardInputScalar(const float *frames, int64_t frameSize,
                        int64_t pitch, int64_t filters, const float *kern,
                        int64_t kernPitch, int64_t kh, int64_t kw, int64_t h,
                        int64_t w, float *gradIn)
{
    std::fill(gradIn, gradIn + h * w, 0.0f);
    for (int64_t f = 0; f < filters; ++f) {
        const float *fr = frames + f * frameSize;
        const float *k = kern + f * kernPitch;
        for (int64_t j = 0; j < kh; ++j)
            for (int64_t i = 0; i < kw; ++i)
                mulAddRows(gradIn, w, fr + j * pitch + i, pitch, h, w,
                           k[(kh - 1 - j) * kw + kw - 1 - i]);
    }
}

const KernelOps kScalarOps = {
    "scalar",          // name
    false,             // wantsInterleaved
    projectRowsScalar, // projectRows
    signPackScalar,    // signPack
    signPackColumnsScalar, // signPackColumns
    copySpanScalar,    // copySpan
    gatherSpanScalar,  // gatherSpan
    groupSumsScalar,   // groupSums
    ownerValuesScalar,    // ownerValues
    ownerScatterScalar,   // ownerScatter
    ownerWeightMulScalar, // ownerWeightMul
    convForwardScalar,       // convForward
    convBackwardInputScalar, // convBackwardInput
};

} // namespace

int64_t
groupLists(const int32_t *owner, int64_t rows, int32_t *list, int32_t *slotOf)
{
    // Row r is written at both ends of the list; only the end it
    // belongs to advances, so the other write is overwritten later.
    int64_t u = 0, k = 0;
    for (int64_t r = 0; r < rows; ++r) {
        const int64_t own = owner[r] == r;
        slotOf[r] = static_cast<int32_t>(u);
        list[u] = static_cast<int32_t>(r);
        list[rows - 1 - k] = static_cast<int32_t>(r);
        u += own;
        k += 1 - own;
    }
    return u;
}

const KernelOps &
scalarOps()
{
    return kScalarOps;
}

} // namespace kernels
} // namespace mercury
