#include "tensor/ops.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "util/logging.hpp"

namespace mercury {

namespace {

/** Fetch input pixel honoring zero padding. */
inline float
paddedAt(const Tensor &t, int64_t n, int64_t c, int64_t h, int64_t w)
{
    if (h < 0 || w < 0 || h >= t.dim(2) || w >= t.dim(3))
        return 0.0f;
    return t.at4(n, c, h, w);
}

// The glue ops (frame loads, transposes, pooling, ReLU) move data in
// quads: four floats in one GCC/Clang vector value, an SSE register at
// the baseline ISA. Quads load and store through memcpy, so any float
// address serves, and lanes are selected by bitwise masks, so every
// value moves with its bits (-0 and NaN included).

/** Four floats, one per lane. */
using Quad = float __attribute__((vector_size(4 * sizeof(float))));
/** Four 32-bit lanes: compare masks and offsets. */
using QuadI = int32_t __attribute__((vector_size(4 * sizeof(int32_t))));

#if defined(__clang__) || __GNUC__ >= 12
#define MERCURY_SHUFFLE(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#else
#define MERCURY_SHUFFLE(a, b, ...) __builtin_shuffle(a, b, QuadI{__VA_ARGS__})
#endif

inline Quad
loadQuad(const float *p)
{
    Quad q;
    std::memcpy(&q, p, sizeof q);
    return q;
}

inline void
storeQuad(float *p, Quad q)
{
    std::memcpy(p, &q, sizeof q);
}

inline QuadI
loadQuadI(const int32_t *p)
{
    QuadI q;
    std::memcpy(&q, p, sizeof q);
    return q;
}

inline void
storeQuadI(int32_t *p, QuadI q)
{
    std::memcpy(p, &q, sizeof q);
}

/** The lanes of `a` where `m` is all ones, else the lanes of `b`. */
inline Quad
blend(QuadI m, Quad a, Quad b)
{
    return (Quad)(((QuadI)a & m) | ((QuadI)b & ~m));
}

/**
 * dst[0, n) = src[0, n) in whole quads, the last one ending at n (it
 * may overlap the one before): a row of any width >= 4 moves in
 * ceil(n / 4) vector moves and no call. The loop moves two quads a
 * step, so GCC cannot turn it back into a memmove call.
 */
inline void
copyFloats(float *__restrict dst, const float *__restrict src, int64_t n)
{
    if (n < 4) {
        for (int64_t i = 0; i < n; ++i)
            dst[i] = src[i];
        return;
    }
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const Quad a = loadQuad(src + i), b = loadQuad(src + i + 4);
        storeQuad(dst + i, a);
        storeQuad(dst + i + 4, b);
    }
    if (i + 4 <= n)
        storeQuad(dst + i, loadQuad(src + i));
    if (n % 4)
        storeQuad(dst + n - 4, loadQuad(src + n - 4));
}

/** dst[0, n) = +0, in quads as copyFloats moves them (no memset call). */
inline void
zeroFloats(float *dst, int64_t n)
{
    if (n < 4) {
        for (int64_t i = 0; i < n; ++i)
            dst[i] = 0.0f;
        return;
    }
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        storeQuad(dst + i, Quad{});
        storeQuad(dst + i + 4, Quad{});
    }
    if (i + 4 <= n)
        storeQuad(dst + i, Quad{});
    if (n % 4)
        storeQuad(dst + n - 4, Quad{});
}

/**
 * dst[i] = src[n - 1 - i] for i < n, in reversed quads as copyFloats
 * moves them (the last quad may overlap the one before).
 */
inline void
reverseFloats(float *__restrict dst, const float *__restrict src, int64_t n)
{
    if (n < 4) {
        for (int64_t i = 0; i < n; ++i)
            dst[i] = src[n - 1 - i];
        return;
    }
    const auto reversed = [](Quad q) {
        return MERCURY_SHUFFLE(q, q, 3, 2, 1, 0);
    };
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        storeQuad(dst + i, reversed(loadQuad(src + n - 4 - i)));
    if (n % 4)
        storeQuad(dst + n - 4, reversed(loadQuad(src)));
}

/** Transpose the 4 x 4 tile held as row quads r0..r3, in place. */
inline void
transposeQuads(Quad &r0, Quad &r1, Quad &r2, Quad &r3)
{
    const Quad t0 = MERCURY_SHUFFLE(r0, r1, 0, 4, 1, 5);
    const Quad t1 = MERCURY_SHUFFLE(r2, r3, 0, 4, 1, 5);
    const Quad t2 = MERCURY_SHUFFLE(r0, r1, 2, 6, 3, 7);
    const Quad t3 = MERCURY_SHUFFLE(r2, r3, 2, 6, 3, 7);
    r0 = MERCURY_SHUFFLE(t0, t1, 0, 1, 4, 5);
    r1 = MERCURY_SHUFFLE(t0, t1, 2, 3, 6, 7);
    r2 = MERCURY_SHUFFLE(t2, t3, 0, 1, 4, 5);
    r3 = MERCURY_SHUFFLE(t2, t3, 2, 3, 6, 7);
}

/**
 * dst = src transposed: src is (rows, cols) row-major, dst (cols,
 * rows). Whole 4 x 4 tiles move through registers; the last rows % 4
 * rows and cols % 4 columns move one float at a time.
 */
void
transposeBlock(const float *src, int64_t rows, int64_t cols, float *dst)
{
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float *s = src + r * cols;
        int64_t c = 0;
        for (; c + 4 <= cols; c += 4) {
            Quad q0 = loadQuad(s + c), q1 = loadQuad(s + cols + c);
            Quad q2 = loadQuad(s + 2 * cols + c);
            Quad q3 = loadQuad(s + 3 * cols + c);
            transposeQuads(q0, q1, q2, q3);
            storeQuad(dst + c * rows + r, q0);
            storeQuad(dst + (c + 1) * rows + r, q1);
            storeQuad(dst + (c + 2) * rows + r, q2);
            storeQuad(dst + (c + 3) * rows + r, q3);
        }
        for (; c < cols; ++c)
            for (int64_t i = 0; i < 4; ++i)
                dst[c * rows + r + i] = s[i * cols + c];
    }
    for (; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            dst[c * rows + r] = src[r * cols + c];
}

/**
 * sums[4q + l] += rows[r * cols + 4q + l] for rows r ascending, over Q
 * quads of columns: every column is one chain, and the Q chains of a
 * row add side by side.
 */
template <int Q>
void
addRowQuads(const float *rows, int64_t nrows, int64_t cols, float *sums)
{
    Quad acc[Q];
    for (int q = 0; q < Q; ++q)
        acc[q] = loadQuad(sums + 4 * q);
    for (int64_t r = 0; r < nrows; ++r)
        for (int q = 0; q < Q; ++q)
            acc[q] += loadQuad(rows + r * cols + 4 * q);
    for (int q = 0; q < Q; ++q)
        storeQuad(sums + 4 * q, acc[q]);
}

/**
 * sums[c] += rows[r * cols + c] for rows r ascending and every column
 * c < cols: each column's adds form one chain, in row order. Up to six
 * quads of columns run side by side; the last cols % 4 columns run one
 * chain each.
 */
void
addRows(const float *rows, int64_t nrows, int64_t cols, float *sums)
{
    constexpr int64_t kQuads = 6;
    int64_t c = 0;
    while (c + 4 <= cols) {
        const int64_t q = std::min(kQuads, (cols - c) / 4);
        switch (q) {
        case 1: addRowQuads<1>(rows + c, nrows, cols, sums + c); break;
        case 2: addRowQuads<2>(rows + c, nrows, cols, sums + c); break;
        case 3: addRowQuads<3>(rows + c, nrows, cols, sums + c); break;
        case 4: addRowQuads<4>(rows + c, nrows, cols, sums + c); break;
        case 5: addRowQuads<5>(rows + c, nrows, cols, sums + c); break;
        default: addRowQuads<6>(rows + c, nrows, cols, sums + c); break;
        }
        c += 4 * q;
    }
    for (; c < cols; ++c) {
        float acc = sums[c];
        for (int64_t r = 0; r < nrows; ++r)
            acc += rows[r * cols + c];
        sums[c] = acc;
    }
}

/** `spec`, once checkConvSpec has passed it. */
const ConvSpec &
checkedSpec(const ConvSpec &spec)
{
    checkConvSpec(spec);
    return spec;
}

} // namespace

void
checkConvSpec(const ConvSpec &spec)
{
    if (spec.groups < 1 || spec.stride < 1 || spec.kernelH < 1 ||
        spec.kernelW < 1 || spec.pad < 0) {
        panic("conv spec needs groups, stride and kernel >= 1 and pad >= 0");
    }
    if (spec.inChannels % spec.groups != 0 ||
        spec.outChannels % spec.groups != 0) {
        panic("conv channels not divisible by groups");
    }
}

void
checkConvInput(const Tensor &input, const ConvSpec &spec)
{
    if (input.rank() != 4)
        panic("conv input must be rank 4, got ", input.shapeStr());
    if (input.dim(1) != spec.inChannels)
        panic("conv input channels ", input.dim(1), " != spec ",
              spec.inChannels);
}

void
checkConvWeight(const Tensor &weight, const ConvSpec &spec)
{
    if (weight.rank() != 4)
        panic("conv weight must be rank 4, got ", weight.shapeStr());
    if (weight.dim(0) != spec.outChannels ||
        weight.dim(1) != spec.inChannels / spec.groups ||
        weight.dim(2) != spec.kernelH || weight.dim(3) != spec.kernelW) {
        panic("conv weight shape ", weight.shapeStr(),
              " inconsistent with spec");
    }
}

void
checkConvGradOut(const Tensor &gradOut, int64_t n, int64_t in_h,
                 int64_t in_w, const ConvSpec &spec)
{
    if (gradOut.rank() != 4 || gradOut.dim(0) != n ||
        gradOut.dim(1) != spec.outChannels ||
        gradOut.dim(2) != spec.outH(in_h) ||
        gradOut.dim(3) != spec.outW(in_w)) {
        panic("conv gradOut shape ", gradOut.shapeStr(), " != (", n, ", ",
              spec.outChannels, ", ", spec.outH(in_h), ", ",
              spec.outW(in_w), ") for a ", in_h, "x", in_w, " input");
    }
}

void
checkConvBias(const Tensor &bias, const ConvSpec &spec)
{
    if (bias.numel() != 0 && bias.numel() != spec.outChannels)
        panic("conv bias has ", bias.numel(), " elements for ",
              spec.outChannels, " filters");
}

ConvFrame::ConvFrame(const ConvSpec &spec, int64_t h, int64_t w)
    : h_(h), w_(w), oh_(spec.outH(h)), ow_(spec.outW(w)),
      kh_(spec.kernelH), kw_(spec.kernelW), stride_(spec.stride),
      pad_(spec.pad), rows_((oh_ - 1) * spec.stride + spec.kernelH)
{
    const int64_t cols = (ow_ - 1) * stride_ + kw_;
    span_ = (cols + stride_ - 1) / stride_;
    rowLen_ = stride_ * span_;
    inRows_ = std::max<int64_t>(0, std::min(h, rows_ - pad_));
    const int64_t in_cols = std::min(w, rowLen_ - pad_);
    for (int64_t x = 0; x < in_cols; ++x)
        slot_.push_back(col(x + pad_));
    for (int64_t ky = 0; ky < kh_; ++ky)
        for (int64_t kx = 0; kx < kw_; ++kx)
            taps_.push_back(tap(ky, kx));
}

void
ConvFrame::load(const float *src, int64_t channels, float *dst) const
{
    // Frame rows [0, top) and [top + inRows_, rows_) are border; each
    // row between holds one input row. At stride 1 a row is pad_
    // zeros, the input row, pad_ zeros: with pad_ <= 4 one zero quad
    // at each end, then the input row's quads over them, writes it.
    // Other strides zero the row, then place each input column at its
    // phase slot.
    const int64_t top = std::min(pad_, rows_) * rowLen_;
    const int64_t bottom = (rows_ - inRows_) * rowLen_ - top;
    const int64_t in_cols = static_cast<int64_t>(slot_.size());
    const bool quads = stride_ == 1 && pad_ <= 4 && rowLen_ >= 4;
    for (int64_t c = 0; c < channels; ++c) {
        const float *plane = src + c * h_ * w_;
        float *frame = dst + c * size();
        zeroFloats(frame, top);
        for (int64_t y = 0; y < inRows_; ++y) {
            const float *in = plane + y * w_;
            float *row = frame + top + y * rowLen_;
            if (quads) {
                storeQuad(row, Quad{});
                storeQuad(row + rowLen_ - 4, Quad{});
                copyFloats(row + pad_, in, in_cols);
            } else {
                zeroFloats(row, rowLen_);
                for (int64_t x = 0; x < in_cols; ++x)
                    row[slot_[static_cast<size_t>(x)]] = in[x];
            }
        }
        zeroFloats(frame + top + inRows_ * rowLen_, bottom);
    }
}

std::vector<int64_t>
ConvFrame::tapOffsets(int64_t channels) const
{
    std::vector<int64_t> off;
    off.reserve(static_cast<size_t>(channels) * taps_.size());
    for (int64_t c = 0; c < channels; ++c)
        for (const int64_t t : taps_)
            off.push_back(c * size() + t);
    return off;
}

std::vector<int64_t>
ConvFrame::positionSlots() const
{
    std::vector<int64_t> slots;
    slots.reserve(static_cast<size_t>(std::max<int64_t>(0, oh_ * ow_)));
    for (int64_t y = 0; y < oh_; ++y)
        for (int64_t x = 0; x < ow_; ++x)
            slots.push_back(y * rowStep() + x);
    return slots;
}

ConvGradFrame::ConvGradFrame(const ConvSpec &spec, int64_t h, int64_t w)
    : oh_(spec.outH(h)), ow_(spec.outW(w)), kh_(spec.kernelH),
      kw_(spec.kernelW), stride_(spec.stride), pad_(spec.pad),
      groups_(spec.groups), rows_(h + kh_ - 1), pitch_(w + kw_ - 1)
{
    const int64_t filters = spec.outChannels / groups_;
    taps_.reserve(static_cast<size_t>(filters * kh_ * kw_));
    for (int64_t f = 0; f < filters; ++f)
        for (int64_t j = 0; j < kh_; ++j)
            for (int64_t i = 0; i < kw_; ++i)
                taps_.push_back(f * size() + j * pitch_ + i);
    // A gradient's frame row y * stride + kH - 1 - pad grows with y, so
    // the rows (and columns) that land inside form one range.
    const auto inside = [this](int64_t n, int64_t k, int64_t len,
                               int64_t &lo, int64_t &hi) {
        lo = 0;
        while (lo < n && lo * stride_ + k - 1 - pad_ < 0)
            ++lo;
        hi = lo;
        while (hi < n && hi * stride_ + k - 1 - pad_ < len)
            ++hi;
    };
    inside(oh_, kh_, rows_, y0_, y1_);
    inside(ow_, kw_, pitch_, x0_, x1_);
}

void
ConvGradFrame::load(const float *go, int64_t filters, const int32_t *owners,
                    float *dst) const
{
    const int64_t v = oh_ * ow_;
    const int64_t n = x1_ - x0_; // gradients per row that land inside
    if (stride_ == 1 && owners) {
        // Gradient rows land on consecutive cells: one gather moves
        // every row of every filter plane.
        kernels::ops().gatherSpan(dst + at(y0_, x0_), pitch_, size(), go, v,
                                  owners + y0_ * ow_ + x0_, ow_, y1_ - y0_, n,
                                  filters);
        return;
    }
    for (int64_t f = 0; f < filters; ++f) {
        const float *g = go + f * v;
        float *frame = dst + f * size();
        for (int64_t y = y0_; y < y1_; ++y) {
            // Gradients r .. r + n of the row land stride_ cells apart.
            const int64_t r = y * ow_ + x0_;
            float *cell = frame + at(y, x0_);
            if (stride_ != 1) {
                for (int64_t x = 0; x < n; ++x)
                    cell[x * stride_] = g[owners ? owners[r + x] : r + x];
            } else {
                copyFloats(cell, g + r, n);
            }
        }
    }
}

void
ConvGradFrame::flipKernels(const Tensor &weight, float *dst) const
{
    const int64_t kk = kh_ * kw_;
    const int64_t ntaps = static_cast<int64_t>(taps_.size());
    const int64_t filters = ntaps / kk, cin_g = weight.dim(1);
    for (int64_t g = 0; g < groups_; ++g)
        for (int64_t c = 0; c < cin_g; ++c)
            for (int64_t f = 0; f < filters; ++f)
                reverseFloats(dst + (g * cin_g + c) * ntaps + f * kk,
                              weight.data() +
                                  ((g * filters + f) * cin_g + c) * kk,
                              kk);
}

Tensor
gradOutByPosition(const Tensor &gradOut, int64_t groups)
{
    const int64_t filters = gradOut.dim(1) / groups;
    const int64_t v = gradOut.dim(2) * gradOut.dim(3);
    const int64_t blocks = gradOut.dim(0) * groups;
    Tensor t = Tensor::uninitialized({blocks, v, filters});
    for (int64_t bg = 0; bg < blocks; ++bg)
        transposeBlock(gradOut.data() + bg * filters * v, filters, v,
                       t.data() + bg * v * filters);
    return t;
}

// The three conv ops below keep, for every output element, the IEEE
// operation sequence of the textbook nested loops (see "Exact ops" in
// docs/ARCHITECTURE.md), so each result is bit-identical to them; they
// run on the kernel table (core/kernels), whose bodies hold that order.

ExactConv::ExactConv(const ConvSpec &spec, int64_t h, int64_t w)
    : spec_(checkedSpec(spec)), h_(h), w_(w),
      cin_g_(spec.inChannels / spec.groups),
      cout_g_(spec.outChannels / spec.groups), frame_(spec, h, w),
      gradFrame_(spec, h, w)
{
    // A layer with no output runs no op past its checks, so it gets no
    // buffers (a frame's size is not even defined for it).
    if (h < 0 || w < 0 || frame_.outH() <= 0 || frame_.outW() <= 0)
        return;
    tapOff_ = frame_.tapOffsets(cin_g_);
    slots_ = frame_.positionSlots();
    frames_.resize(static_cast<size_t>(cin_g_ * frame_.size()));
    gradFrames_.resize(static_cast<size_t>(cout_g_ * gradFrame_.size()));
    flipped_.resize(static_cast<size_t>(spec.outChannels * cin_g_ *
                                        spec.kernelH * spec.kernelW));
    goT_.resize(slots_.size() * static_cast<size_t>(cout_g_));
    acc_.resize(tapOff_.size() * static_cast<size_t>(cout_g_));
}

bool
ExactConv::fits(int64_t h, int64_t w) const
{
    return h == h_ && w == w_;
}

void
ExactConv::checkInput(const Tensor &input) const
{
    checkConvInput(input, spec_);
    if (input.dim(2) != h_ || input.dim(3) != w_)
        panic("conv input ", input.shapeStr(), " is not ", h_, "x", w_);
}

Tensor
ExactConv::forward(const Tensor &input, const Tensor &weight,
                   const Tensor &bias)
{
    checkInput(input);
    checkConvWeight(weight, spec_);
    checkConvBias(bias, spec_);
    const int64_t n = input.dim(0), oh = frame_.outH(), ow = frame_.outW();
    Tensor out = Tensor::uninitialized({n, spec_.outChannels, oh, ow});
    if (out.numel() == 0)
        return out;

    // Each output element starts at its bias and adds in * w over
    // (ic, ky, kx) ascending; padded taps read the zero border and add
    // 0 * w, as the textbook loop's zero-padded fetch does.
    const int64_t taps = static_cast<int64_t>(tapOff_.size());
    const kernels::KernelOps &k = kernels::ops();
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec_.groups; ++g) {
            frame_.load(input.data() + input.offset4(b, g * cin_g_, 0, 0),
                        cin_g_, frames_.data());
            k.convForward(frames_.data(), tapOff_.data(), taps,
                          frame_.rowStep(), weight.data() + g * cout_g_ * taps,
                          bias.numel() ? bias.data() + g * cout_g_ : nullptr,
                          cout_g_, oh, ow,
                          out.data() + out.offset4(b, g * cout_g_, 0, 0),
                          oh * ow);
        }
    }
    return out;
}

Tensor
ExactConv::backwardWeight(const Tensor &input, const Tensor &gradOut,
                          Tensor *gradBias)
{
    checkInput(input);
    const int64_t n = input.dim(0);
    checkConvGradOut(gradOut, n, h_, w_, spec_);
    const std::vector<int64_t> shape = {spec_.outChannels, cin_g_,
                                        spec_.kernelH, spec_.kernelW};
    if (gradBias)
        *gradBias = Tensor({spec_.outChannels});
    if (gradOut.numel() == 0)
        return Tensor(shape);

    // Each weight element is one chain, += gradOut * in over (batch,
    // y, x) ascending from +0: the weight-gradient kernel with every
    // output position an owner (its own group sum). The chains of a
    // group's filters run side by side on the (image, group)'s
    // gradients transposed to (position, filter), and the
    // accumulators, laid out (tap, filter), carry across the batch.
    // The bias sums add the same transposed rows, (image, position)
    // ascending: each filter's own chain.
    Tensor grad_w = Tensor::uninitialized(shape);
    const int64_t taps = static_cast<int64_t>(tapOff_.size());
    const int64_t v = static_cast<int64_t>(slots_.size());
    for (int64_t g = 0; g < spec_.groups; ++g) {
        std::fill(acc_.begin(), acc_.end(), 0.0f);
        for (int64_t b = 0; b < n; ++b) {
            transposeBlock(
                gradOut.data() + gradOut.offset4(b, g * cout_g_, 0, 0),
                cout_g_, v, goT_.data());
            if (gradBias)
                addRows(goT_.data(), v, cout_g_,
                        gradBias->data() + g * cout_g_);
            frame_.load(input.data() + input.offset4(b, g * cin_g_, 0, 0),
                        cin_g_, frames_.data());
            kernels::ops().ownerWeightMul(goT_.data(), cout_g_, v,
                                          frames_.data(), slots_.data(),
                                          tapOff_.data(), taps, acc_.data());
        }
        transposeBlock(acc_.data(), taps, cout_g_,
                       grad_w.data() + g * cout_g_ * taps);
    }
    return grad_w;
}

Tensor
ExactConv::backwardInput(const Tensor &gradOut, const Tensor &weight)
{
    checkConvWeight(weight, spec_);
    if (gradOut.rank() != 4)
        panic("conv gradOut must be rank 4, got ", gradOut.shapeStr());
    const int64_t n = gradOut.dim(0);
    checkConvGradOut(gradOut, n, h_, w_, spec_);
    const std::vector<int64_t> shape = {n, spec_.inChannels, h_, w_};
    if (gradOut.numel() == 0)
        return Tensor(shape);
    Tensor grad_in = Tensor::uninitialized(shape);
    if (grad_in.numel() == 0)
        return grad_in;

    // One bordered frame of the group's gradients per (image, group),
    // and one convForward over it computes all of the group's input
    // channels: each loaded gradient serves every channel's chain.
    const std::vector<int64_t> &taps = gradFrame_.taps();
    const int64_t ntaps = static_cast<int64_t>(taps.size());
    gradFrame_.flipKernels(weight, flipped_.data());
    const kernels::KernelOps &k = kernels::ops();
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec_.groups; ++g) {
            gradFrame_.load(
                gradOut.data() + gradOut.offset4(b, g * cout_g_, 0, 0),
                cout_g_, nullptr, gradFrames_.data());
            k.convForward(gradFrames_.data(), taps.data(), ntaps,
                          gradFrame_.pitch(),
                          flipped_.data() + g * cin_g_ * ntaps, nullptr,
                          cin_g_, h_, w_,
                          grad_in.data() + grad_in.offset4(b, g * cin_g_, 0, 0),
                          h_ * w_);
        }
    }
    return grad_in;
}

Tensor
conv2dForward(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const ConvSpec &spec)
{
    checkConvSpec(spec);
    checkConvInput(input, spec);
    return ExactConv(spec, input.dim(2), input.dim(3))
        .forward(input, weight, bias);
}

Tensor
conv2dBackwardWeight(const Tensor &input, const Tensor &gradOut,
                     const ConvSpec &spec)
{
    checkConvSpec(spec);
    checkConvInput(input, spec);
    return ExactConv(spec, input.dim(2), input.dim(3))
        .backwardWeight(input, gradOut);
}

Tensor
conv2dBackwardInput(const Tensor &gradOut, const Tensor &weight,
                    const ConvSpec &spec, int64_t in_h, int64_t in_w)
{
    return ExactConv(spec, in_h, in_w).backwardInput(gradOut, weight);
}

Tensor
conv2dBackwardBias(const Tensor &gradOut)
{
    if (gradOut.rank() != 4)
        panic("conv gradOut must be rank 4, got ", gradOut.shapeStr());
    const int64_t n = gradOut.dim(0), c = gradOut.dim(1);
    const int64_t hw = gradOut.dim(2) * gradOut.dim(3);
    Tensor grad_b({c});
    // Each filter's sum is one chain over (image, position) ascending
    // from +0: each image's planes transposed to (position, filter),
    // then their rows added in order, the filters four to a vector.
    Tensor t = Tensor::uninitialized({hw, c});
    for (int64_t b = 0; b < n; ++b) {
        transposeBlock(gradOut.data() + b * c * hw, c, hw, t.data());
        addRows(t.data(), hw, c, grad_b.data());
    }
    return grad_b;
}

Tensor
im2col(const Tensor &input, const ConvSpec &spec)
{
    const int64_t n = input.dim(0);
    const int64_t oh = spec.outH(input.dim(2));
    const int64_t ow = spec.outW(input.dim(3));
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cols = cin_g * spec.kernelH * spec.kernelW;
    const int64_t rows = n * spec.groups * oh * ow;
    Tensor out({rows, cols});

    int64_t r = 0;
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t x = 0; x < ow; ++x, ++r) {
                    int64_t c = 0;
                    for (int64_t ic = 0; ic < cin_g; ++ic) {
                        for (int64_t ky = 0; ky < spec.kernelH; ++ky) {
                            for (int64_t kx = 0; kx < spec.kernelW;
                                 ++kx, ++c) {
                                const int64_t iy =
                                    y * spec.stride - spec.pad + ky;
                                const int64_t ix =
                                    x * spec.stride - spec.pad + kx;
                                out.at2(r, c) = paddedAt(
                                    input, b, g * cin_g + ic, iy, ix);
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0))
        panic("matmul shape mismatch ", a.shapeStr(), " x ", b.shapeStr());
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *orow = out.data() + i * n;
        for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f)
                continue;
            const float *brow = b.data() + p * n;
            for (int64_t j = 0; j < n; ++j)
                orow[j] += av * brow[j];
        }
    }
    return out;
}

Tensor
matmulTransposeB(const Tensor &a, const Tensor &b)
{
    if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1))
        panic("matmulTransposeB shape mismatch ", a.shapeStr(), " x ",
              b.shapeStr());
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    // Every dot product runs its p terms in ascending order from +0;
    // with b transposed the n dot products of a row advance together.
    const Tensor bt = transpose2d(b);
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *orow = out.data() + i * n;
        for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            const float *brow = bt.data() + p * n;
            for (int64_t j = 0; j < n; ++j)
                orow[j] += av * brow[j];
        }
    }
    return out;
}

Tensor
transpose2d(const Tensor &a)
{
    if (a.rank() != 2)
        panic("transpose2d needs rank 2, got ", a.shapeStr());
    Tensor out = Tensor::uninitialized({a.dim(1), a.dim(0)});
    transposeBlock(a.data(), a.dim(0), a.dim(1), out.data());
    return out;
}

Tensor
reluForward(const Tensor &x)
{
    // out = x where x > 0, else +0: the mask keeps x's bits or none.
    Tensor out = Tensor::uninitialized(x.shape());
    const float *xp = x.data();
    float *op = out.data();
    const int64_t n = x.numel();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const Quad v = loadQuad(xp + i);
        storeQuad(op + i, (Quad)((QuadI)v & (v > 0.0f)));
    }
    for (; i < n; ++i)
        op[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
    return out;
}

Tensor
reluBackward(const Tensor &x, const Tensor &grad)
{
    if (x.shape() != grad.shape())
        panic("reluBackward: grad ", grad.shapeStr(), " != input ",
              x.shapeStr());
    // out = +0 where x <= 0, else grad (an unordered NaN x passes it).
    Tensor out = Tensor::uninitialized(x.shape());
    const float *xp = x.data();
    const float *gp = grad.data();
    float *op = out.data();
    const int64_t n = x.numel();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const QuadI off = loadQuad(xp + i) <= 0.0f;
        storeQuad(op + i, (Quad)((QuadI)loadQuad(gp + i) & ~off));
    }
    for (; i < n; ++i)
        op[i] = xp[i] <= 0.0f ? 0.0f : gp[i];
    return out;
}

namespace {

/** Panics unless a rank-4 `shape` can be pooled with int32 offsets. */
void
checkPoolInput(const std::vector<int64_t> &shape, const char *op)
{
    if (shape.size() != 4)
        panic(op, ": input must be rank 4, got rank ", shape.size());
    if (shape[0] * shape[1] * shape[2] * shape[3] > INT32_MAX)
        panic(op, ": input too large for int32 argmax offsets");
}

} // namespace

Tensor
maxPool2x2Forward(const Tensor &x, std::vector<int32_t> &argmax)
{
    checkPoolInput(x.shape(), "maxPool2x2Forward");
    const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const int64_t oh = h / 2, ow = w / 2;
    Tensor out = Tensor::uninitialized({n, c, oh, ow});
    argmax.resize(static_cast<size_t>(out.numel()));
    const float *xp = x.data();
    float *op = out.data();
    int32_t *ap = argmax.data();
    // Four windows side by side: their rows' even and odd columns
    // split into quads, then each later element replaces the best so
    // far only where it compares strictly larger, the same mask
    // picking its offset. The window's elements go (0, 0), (0, 1),
    // (1, 0), (1, 1), as the textbook loop walks them.
    const int32_t dx = 1, dy = static_cast<int32_t>(w);
    for (int64_t plane = 0; plane < n * c; ++plane) {
        for (int64_t y = 0; y < oh; ++y) {
            const int64_t base = (plane * h + 2 * y) * w;
            const float *r0 = xp + base;
            const float *r1 = r0 + w;
            float *o = op + (plane * oh + y) * ow;
            int32_t *a = ap + (plane * oh + y) * ow;
            // The four windows' first offsets, advanced a quad a step.
            QuadI first = static_cast<int32_t>(base) + QuadI{0, 2, 4, 6};
            int64_t ox = 0;
            for (; ox + 4 <= ow; ox += 4, first += 8) {
                const Quad a0 = loadQuad(r0 + 2 * ox);
                const Quad a1 = loadQuad(r0 + 2 * ox + 4);
                const Quad b0 = loadQuad(r1 + 2 * ox);
                const Quad b1 = loadQuad(r1 + 2 * ox + 4);
                const Quad e0 = MERCURY_SHUFFLE(a0, a1, 0, 2, 4, 6);
                const Quad o0 = MERCURY_SHUFFLE(a0, a1, 1, 3, 5, 7);
                const Quad e1 = MERCURY_SHUFFLE(b0, b1, 0, 2, 4, 6);
                const Quad o1 = MERCURY_SHUFFLE(b0, b1, 1, 3, 5, 7);
                Quad best = e0;
                QuadI m = o0 > best;
                best = blend(m, o0, best);
                QuadI k = m & dx;
                m = e1 > best;
                best = blend(m, e1, best);
                k = (m & dy) | (k & ~m);
                m = o1 > best;
                best = blend(m, o1, best);
                k = (m & (dy + dx)) | (k & ~m);
                storeQuad(o + ox, best);
                storeQuadI(a + ox, first + k);
            }
            for (; ox < ow; ++ox) {
                const float *p0 = r0 + 2 * ox, *p1 = r1 + 2 * ox;
                float best = p0[0];
                int32_t k = 0;
                k = p0[1] > best ? dx : k;
                best = p0[1] > best ? p0[1] : best;
                k = p1[0] > best ? dy : k;
                best = p1[0] > best ? p1[0] : best;
                k = p1[1] > best ? dy + dx : k;
                best = p1[1] > best ? p1[1] : best;
                o[ox] = best;
                a[ox] = static_cast<int32_t>(base + 2 * ox) + k;
            }
        }
    }
    return out;
}

Tensor
maxPool2x2Backward(const std::vector<int64_t> &inShape, const Tensor &gradOut,
                   const std::vector<int32_t> &argmax)
{
    checkPoolInput(inShape, "maxPool2x2Backward");
    const int64_t n = inShape[0], c = inShape[1], h = inShape[2],
                  w = inShape[3];
    const int64_t oh = h / 2, ow = w / 2;
    if (gradOut.shape() != std::vector<int64_t>{n, c, oh, ow})
        panic("maxPool2x2Backward: gradOut ", gradOut.shapeStr(), " != (",
              n, ", ", c, ", ", oh, ", ", ow, ")");
    if (static_cast<int64_t>(argmax.size()) != gradOut.numel())
        panic("maxPool2x2Backward: ", argmax.size(), " argmax offsets for ",
              gradOut.numel(), " outputs");
    // Every input cell is written once: a window's four cells take
    // +0 + gradOut at its argmax (the sum a zeroed tensor and one
    // scatter-add would give, -0 becoming +0) and +0 elsewhere; a
    // trailing odd row or column takes +0. A lane whose argmax is none
    // of its window's cells is counted, not followed.
    Tensor grad_in = Tensor::uninitialized(inShape);
    const float *gp = gradOut.data();
    const int32_t *ap = argmax.data();
    float *ip = grad_in.data();
    const int32_t dx = 1, dy = static_cast<int32_t>(w);
    QuadI inside = ~QuadI{};
    int64_t stray = 0;
    for (int64_t plane = 0; plane < n * c; ++plane) {
        float *pin = ip + plane * h * w;
        for (int64_t y = 0; y < oh; ++y) {
            const int64_t base = (plane * h + 2 * y) * w;
            float *r0 = pin + 2 * y * w;
            float *r1 = r0 + w;
            const float *g = gp + (plane * oh + y) * ow;
            const int32_t *a = ap + (plane * oh + y) * ow;
            // The four windows' first offsets, advanced a quad a step.
            QuadI first = static_cast<int32_t>(base) + QuadI{0, 2, 4, 6};
            int64_t ox = 0;
            for (; ox + 4 <= ow; ox += 4, first += 8) {
                const Quad v = loadQuad(g + ox) + 0.0f;
                const QuadI k = loadQuadI(a + ox) - first;
                const QuadI m00 = k == 0, m01 = k == dx, m10 = k == dy,
                            m11 = k == dy + dx;
                inside &= (m00 | m01) | (m10 | m11);
                const Quad v00 = (Quad)((QuadI)v & m00);
                const Quad v01 = (Quad)((QuadI)v & m01);
                const Quad v10 = (Quad)((QuadI)v & m10);
                const Quad v11 = (Quad)((QuadI)v & m11);
                storeQuad(r0 + 2 * ox, MERCURY_SHUFFLE(v00, v01, 0, 4, 1, 5));
                storeQuad(r0 + 2 * ox + 4,
                          MERCURY_SHUFFLE(v00, v01, 2, 6, 3, 7));
                storeQuad(r1 + 2 * ox, MERCURY_SHUFFLE(v10, v11, 0, 4, 1, 5));
                storeQuad(r1 + 2 * ox + 4,
                          MERCURY_SHUFFLE(v10, v11, 2, 6, 3, 7));
            }
            for (; ox < ow; ++ox) {
                const float v = g[ox] + 0.0f;
                const int64_t k = a[ox] - (base + 2 * ox);
                stray += k != 0 && k != dx && k != dy && k != dy + dx;
                r0[2 * ox] = k == 0 ? v : 0.0f;
                r0[2 * ox + 1] = k == dx ? v : 0.0f;
                r1[2 * ox] = k == dy ? v : 0.0f;
                r1[2 * ox + 1] = k == dy + dx ? v : 0.0f;
            }
            if (w % 2) {
                r0[w - 1] = 0.0f;
                r1[w - 1] = 0.0f;
            }
        }
        if (h % 2)
            zeroFloats(pin + (h - 1) * w, w);
    }
    for (int l = 0; l < 4; ++l)
        stray += inside[l] == 0;
    if (stray)
        panic("maxPool2x2Backward: an argmax offset lies outside its "
              "window");
    return grad_in;
}

Tensor
globalAvgPoolForward(const Tensor &x)
{
    const int64_t n = x.dim(0), c = x.dim(1);
    const int64_t hw = x.dim(2) * x.dim(3);
    const float scale = 1.0f / static_cast<float>(hw);
    Tensor out({n, c});
    for (int64_t plane = 0; plane < n * c; ++plane) {
        const float *p = x.data() + plane * hw;
        float acc = 0.0f;
        for (int64_t i = 0; i < hw; ++i)
            acc += p[i];
        out[plane] = acc * scale;
    }
    return out;
}

Tensor
globalAvgPoolBackward(const std::vector<int64_t> &inShape,
                      const Tensor &gradOut)
{
    if (inShape.size() != 4)
        panic("globalAvgPoolBackward: input must be rank 4, got rank ",
              inShape.size());
    const std::vector<int64_t> pooled = {inShape[0], inShape[1]};
    if (gradOut.shape() != pooled)
        panic("globalAvgPoolBackward: gradOut ", gradOut.shapeStr(),
              " != (", inShape[0], ", ", inShape[1], ")");
    Tensor grad_in = Tensor::uninitialized(inShape);
    const int64_t planes = inShape[0] * inShape[1];
    const int64_t hw = inShape[2] * inShape[3];
    const float scale = 1.0f / static_cast<float>(hw);
    for (int64_t plane = 0; plane < planes; ++plane) {
        float *p = grad_in.data() + plane * hw;
        std::fill(p, p + hw, gradOut[plane] * scale);
    }
    return grad_in;
}

float
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels,
                    Tensor &gradOut)
{
    const int64_t n = logits.dim(0), k = logits.dim(1);
    if (static_cast<int64_t>(labels.size()) != n)
        panic("softmaxCrossEntropy: ", labels.size(), " labels for batch ",
              n);
    gradOut = Tensor({n, k});
    double loss = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        float mx = logits.at2(i, 0);
        for (int64_t j = 1; j < k; ++j)
            mx = std::max(mx, logits.at2(i, j));
        double denom = 0.0;
        for (int64_t j = 0; j < k; ++j)
            denom += std::exp(static_cast<double>(logits.at2(i, j) - mx));
        const int y = labels[static_cast<size_t>(i)];
        if (y < 0 || y >= k)
            panic("label ", y, " out of range for ", k, " classes");
        for (int64_t j = 0; j < k; ++j) {
            const double p =
                std::exp(static_cast<double>(logits.at2(i, j) - mx)) / denom;
            gradOut.at2(i, j) =
                static_cast<float>((p - (j == y ? 1.0 : 0.0)) /
                                   static_cast<double>(n));
            if (j == y)
                loss -= std::log(std::max(p, 1e-12));
        }
    }
    return static_cast<float>(loss / static_cast<double>(n));
}

Tensor
softmaxRows(const Tensor &x)
{
    Tensor out = x;
    for (int64_t i = 0; i < x.dim(0); ++i) {
        float mx = x.at2(i, 0);
        for (int64_t j = 1; j < x.dim(1); ++j)
            mx = std::max(mx, x.at2(i, j));
        double denom = 0.0;
        for (int64_t j = 0; j < x.dim(1); ++j)
            denom += std::exp(static_cast<double>(x.at2(i, j) - mx));
        for (int64_t j = 0; j < x.dim(1); ++j)
            out.at2(i, j) = static_cast<float>(
                std::exp(static_cast<double>(x.at2(i, j) - mx)) / denom);
    }
    return out;
}

uint64_t
convMacCount(int64_t n, int64_t in_h, int64_t in_w, const ConvSpec &spec)
{
    const uint64_t oh = static_cast<uint64_t>(spec.outH(in_h));
    const uint64_t ow = static_cast<uint64_t>(spec.outW(in_w));
    return static_cast<uint64_t>(n) * oh * ow *
           static_cast<uint64_t>(spec.outChannels) *
           static_cast<uint64_t>(spec.inChannels / spec.groups) *
           static_cast<uint64_t>(spec.kernelH) *
           static_cast<uint64_t>(spec.kernelW);
}

} // namespace mercury
