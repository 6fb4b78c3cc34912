#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
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
    std::fill(dst, dst + channels * size(), 0.0f);
    for (int64_t c = 0; c < channels; ++c) {
        for (int64_t y = 0; y < inRows_; ++y) {
            const float *srow = src + (c * h_ + y) * w_;
            float *frow = dst + c * size() + (y + pad_) * rowLen_;
            for (size_t x = 0; x < slot_.size(); ++x)
                frow[slot_[x]] = srow[x];
        }
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
    slots.reserve(static_cast<size_t>(oh_ * ow_));
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
    const kernels::KernelOps &k = kernels::ops();
    if (stride_ == 1 && owners) {
        // Gradient rows land on consecutive cells: one gather moves
        // every row of every filter plane.
        k.gatherSpan(dst + at(y0_, x0_), pitch_, size(), go, v,
                     owners + y0_ * ow_ + x0_, ow_, y1_ - y0_, n, filters);
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
                k.copySpan(cell, g + r, n);
            }
        }
    }
}

std::vector<float>
ConvGradFrame::flipKernels(const Tensor &weight) const
{
    const int64_t kk = kh_ * kw_;
    const int64_t ntaps = static_cast<int64_t>(taps_.size());
    const int64_t filters = ntaps / kk, cin_g = weight.dim(1);
    std::vector<float> flipped(static_cast<size_t>(weight.numel()));
    for (int64_t g = 0; g < groups_; ++g)
        for (int64_t c = 0; c < cin_g; ++c)
            for (int64_t f = 0; f < filters; ++f) {
                const float *k =
                    weight.data() + ((g * filters + f) * cin_g + c) * kk;
                float *dst = flipped.data() + (g * cin_g + c) * ntaps + f * kk;
                for (int64_t t = 0; t < kk; ++t)
                    dst[t] = k[kk - 1 - t];
            }
    return flipped;
}

std::vector<float>
gradOutByPosition(const Tensor &gradOut, int64_t groups)
{
    const int64_t filters = gradOut.dim(1) / groups;
    const int64_t v = gradOut.dim(2) * gradOut.dim(3);
    std::vector<float> t(static_cast<size_t>(gradOut.numel()));
    for (int64_t bg = 0; bg < gradOut.dim(0) * groups; ++bg) {
        const float *src = gradOut.data() + bg * filters * v;
        float *dst = t.data() + bg * v * filters;
        for (int64_t f = 0; f < filters; ++f)
            for (int64_t r = 0; r < v; ++r)
                dst[r * filters + f] = src[f * v + r];
    }
    return t;
}

// The three conv ops below keep, for every output element, the IEEE
// operation sequence of the textbook nested loops (see "Exact ops" in
// docs/ARCHITECTURE.md), so each result is bit-identical to them; they
// run on the kernel table (core/kernels), whose bodies hold that order.

Tensor
conv2dForward(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const ConvSpec &spec)
{
    checkConvSpec(spec);
    checkConvInput(input, spec);
    checkConvWeight(weight, spec);
    checkConvBias(bias, spec);
    const int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
    const int64_t oh = spec.outH(h), ow = spec.outW(w);
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor out({n, spec.outChannels, oh, ow});
    if (out.numel() == 0)
        return out;

    // Each output element starts at its bias and adds in * w over
    // (ic, ky, kx) ascending; padded taps read the zero border and add
    // 0 * w, as the textbook loop's zero-padded fetch does.
    const ConvFrame f(spec, h, w);
    const std::vector<int64_t> tap_off = f.tapOffsets(cin_g);
    const int64_t taps = static_cast<int64_t>(tap_off.size());
    std::vector<float> frames(static_cast<size_t>(cin_g * f.size()));
    const kernels::KernelOps &k = kernels::ops();
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            f.load(input.data() + input.offset4(b, g * cin_g, 0, 0), cin_g,
                   frames.data());
            k.convForward(frames.data(), tap_off.data(), taps, f.rowStep(),
                          weight.data() + g * cout_g * taps,
                          bias.numel() ? bias.data() + g * cout_g : nullptr,
                          cout_g, oh, ow,
                          out.data() + out.offset4(b, g * cout_g, 0, 0),
                          oh * ow);
        }
    }
    return out;
}

Tensor
conv2dBackwardWeight(const Tensor &input, const Tensor &gradOut,
                     const ConvSpec &spec)
{
    checkConvSpec(spec);
    checkConvInput(input, spec);
    const int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
    checkConvGradOut(gradOut, n, h, w, spec);
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    const int64_t kh = spec.kernelH, kw = spec.kernelW;
    Tensor grad_w({spec.outChannels, cin_g, kh, kw});
    if (gradOut.numel() == 0)
        return grad_w;

    // Each weight element is one chain, += gradOut * in over (batch,
    // y, x) ascending from +0: the weight-gradient kernel with every
    // output position an owner (its own group sum). The chains of a
    // group's filters run side by side on gradOut transposed to
    // (position, filter), and the accumulators, laid out (tap, filter),
    // carry across the batch.
    const ConvFrame f(spec, h, w);
    const std::vector<int64_t> tap_off = f.tapOffsets(cin_g);
    const std::vector<int64_t> base = f.positionSlots();
    const int64_t taps = static_cast<int64_t>(tap_off.size());
    const int64_t v = static_cast<int64_t>(base.size());
    const std::vector<float> go_t = gradOutByPosition(gradOut, spec.groups);
    std::vector<float> frames(static_cast<size_t>(cin_g * f.size()));
    std::vector<float> acc(static_cast<size_t>(taps * cout_g));
    for (int64_t g = 0; g < spec.groups; ++g) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (int64_t b = 0; b < n; ++b) {
            f.load(input.data() + input.offset4(b, g * cin_g, 0, 0), cin_g,
                   frames.data());
            kernels::ops().ownerWeightMul(
                go_t.data() + (b * spec.groups + g) * v * cout_g, cout_g, v,
                frames.data(), base.data(), tap_off.data(), taps,
                acc.data());
        }
        float *gw = grad_w.data() + g * cout_g * taps;
        for (int64_t o = 0; o < cout_g; ++o)
            for (int64_t t = 0; t < taps; ++t)
                gw[o * taps + t] = acc[static_cast<size_t>(t * cout_g + o)];
    }
    return grad_w;
}

Tensor
conv2dBackwardInput(const Tensor &gradOut, const Tensor &weight,
                    const ConvSpec &spec, int64_t in_h, int64_t in_w)
{
    checkConvSpec(spec);
    checkConvWeight(weight, spec);
    if (gradOut.rank() != 4)
        panic("conv gradOut must be rank 4, got ", gradOut.shapeStr());
    const int64_t n = gradOut.dim(0);
    checkConvGradOut(gradOut, n, in_h, in_w, spec);
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor grad_in({n, spec.inChannels, in_h, in_w});
    if (gradOut.numel() == 0 || grad_in.numel() == 0)
        return grad_in;

    // One bordered frame of the group's gradients per (image, group),
    // and one convForward over it computes all of the group's input
    // channels: each loaded gradient serves every channel's chain.
    const ConvGradFrame f(spec, in_h, in_w);
    const std::vector<int64_t> &taps = f.taps();
    const int64_t ntaps = static_cast<int64_t>(taps.size());
    const std::vector<float> flipped = f.flipKernels(weight);
    std::vector<float> frames(static_cast<size_t>(cout_g * f.size()));
    const kernels::KernelOps &k = kernels::ops();
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            f.load(gradOut.data() + gradOut.offset4(b, g * cout_g, 0, 0),
                   cout_g, nullptr, frames.data());
            k.convForward(frames.data(), taps.data(), ntaps, f.pitch(),
                          flipped.data() + g * cin_g * ntaps, nullptr, cin_g,
                          in_h, in_w,
                          grad_in.data() + grad_in.offset4(b, g * cin_g, 0, 0),
                          in_h * in_w);
        }
    }
    return grad_in;
}

Tensor
conv2dBackwardBias(const Tensor &gradOut)
{
    const int64_t n = gradOut.dim(0), c = gradOut.dim(1);
    const int64_t hw = gradOut.dim(2) * gradOut.dim(3);
    Tensor grad_b({c});
    float *gb = grad_b.data();
    // Each filter's sum is one chain over (image, position) ascending
    // from +0. Four filters' chains run side by side, so no add waits
    // on the one before it; a last 1-3 filters run one chain each.
    constexpr int64_t kChains = 4;
    for (int64_t b = 0; b < n; ++b) {
        const float *plane = gradOut.data() + b * c * hw;
        int64_t oc = 0;
        for (; oc + kChains <= c; oc += kChains) {
            const float *p = plane + oc * hw;
            float acc[kChains];
            for (int64_t q = 0; q < kChains; ++q)
                acc[q] = gb[oc + q];
            for (int64_t i = 0; i < hw; ++i)
                for (int64_t q = 0; q < kChains; ++q)
                    acc[q] += p[q * hw + i];
            for (int64_t q = 0; q < kChains; ++q)
                gb[oc + q] = acc[q];
        }
        for (; oc < c; ++oc) {
            const float *p = plane + oc * hw;
            float acc = gb[oc];
            for (int64_t i = 0; i < hw; ++i)
                acc += p[i];
            gb[oc] = acc;
        }
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
    const int64_t r = a.dim(0), c = a.dim(1);
    Tensor out({c, r});
    const float *src = a.data();
    float *dst = out.data();
    for (int64_t i = 0; i < r; ++i)
        for (int64_t j = 0; j < c; ++j)
            dst[j * r + i] = src[i * c + j];
    return out;
}

Tensor
reluForward(const Tensor &x)
{
    Tensor out = x;
    float *p = out.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = std::max(0.0f, p[i]);
    return out;
}

Tensor
reluBackward(const Tensor &x, const Tensor &grad)
{
    Tensor out = grad;
    float *p = out.data();
    const float *xp = x.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = xp[i] <= 0.0f ? 0.0f : p[i];
    return out;
}

Tensor
maxPool2x2Forward(const Tensor &x, std::vector<int32_t> &argmax)
{
    const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const int64_t oh = h / 2, ow = w / 2;
    Tensor out({n, c, oh, ow});
    argmax.assign(static_cast<size_t>(out.numel()), 0);
    const float *xp = x.data();
    float *op = out.data();
    int64_t idx = 0;
    for (int64_t plane = 0; plane < n * c; ++plane) {
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t ox = 0; ox < ow; ++ox, ++idx) {
                // The window's first element, then any later one that
                // is larger: the output is always one of the four.
                int64_t best_off = (plane * h + 2 * y) * w + 2 * ox;
                float best = xp[best_off];
                for (int64_t dy = 0; dy < 2; ++dy) {
                    for (int64_t dx = 0; dx < 2; ++dx) {
                        const int64_t off =
                            (plane * h + 2 * y + dy) * w + 2 * ox + dx;
                        if (xp[off] > best) {
                            best = xp[off];
                            best_off = off;
                        }
                    }
                }
                op[idx] = best;
                argmax[static_cast<size_t>(idx)] =
                    static_cast<int32_t>(best_off);
            }
        }
    }
    return out;
}

Tensor
maxPool2x2Backward(const Tensor &x, const Tensor &gradOut,
                   const std::vector<int32_t> &argmax)
{
    Tensor grad_in(x.shape());
    for (int64_t i = 0; i < gradOut.numel(); ++i)
        grad_in[argmax[static_cast<size_t>(i)]] += gradOut[i];
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
globalAvgPoolBackward(const Tensor &x, const Tensor &gradOut)
{
    Tensor grad_in(x.shape());
    const int64_t planes = x.dim(0) * x.dim(1);
    const int64_t hw = x.dim(2) * x.dim(3);
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
