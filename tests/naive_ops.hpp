/**
 * @file
 * Test oracle: the scalar nested-loop bodies of the tensor ops, kept
 * as they were before `tensor/ops` was rewritten over raw pointers.
 * Each loop states its IEEE operation order in the plainest form, and
 * the library ops must reproduce it bit for bit (test_exact_ops). The
 * shape checks stay in the library; callers here pass valid shapes.
 */

#ifndef MERCURY_TESTS_NAIVE_OPS_HPP
#define MERCURY_TESTS_NAIVE_OPS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace oracle {

using mercury::ConvSpec;
using mercury::Tensor;

/** Fetch input pixel honoring zero padding. */
inline float
paddedAt(const Tensor &t, int64_t n, int64_t c, int64_t h, int64_t w)
{
    if (h < 0 || w < 0 || h >= t.dim(2) || w >= t.dim(3))
        return 0.0f;
    return t.at4(n, c, h, w);
}

inline Tensor
conv2dForward(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const ConvSpec &spec)
{
    const int64_t n = input.dim(0);
    const int64_t oh = spec.outH(input.dim(2));
    const int64_t ow = spec.outW(input.dim(3));
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor out({n, spec.outChannels, oh, ow});

    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            for (int64_t oc = g * cout_g; oc < (g + 1) * cout_g; ++oc) {
                for (int64_t y = 0; y < oh; ++y) {
                    for (int64_t x = 0; x < ow; ++x) {
                        float acc =
                            bias.numel() ? bias[oc] : 0.0f;
                        for (int64_t ic = 0; ic < cin_g; ++ic) {
                            for (int64_t ky = 0; ky < spec.kernelH; ++ky) {
                                for (int64_t kx = 0; kx < spec.kernelW;
                                     ++kx) {
                                    const int64_t iy =
                                        y * spec.stride - spec.pad + ky;
                                    const int64_t ix =
                                        x * spec.stride - spec.pad + kx;
                                    acc += paddedAt(input, b,
                                                    g * cin_g + ic, iy, ix) *
                                           weight.at4(oc, ic, ky, kx);
                                }
                            }
                        }
                        out.at4(b, oc, y, x) = acc;
                    }
                }
            }
        }
    }
    return out;
}

inline Tensor
conv2dBackwardWeight(const Tensor &input, const Tensor &gradOut,
                     const ConvSpec &spec)
{
    const int64_t n = input.dim(0);
    const int64_t oh = gradOut.dim(2);
    const int64_t ow = gradOut.dim(3);
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor grad_w({spec.outChannels, cin_g, spec.kernelH, spec.kernelW});

    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            for (int64_t oc = g * cout_g; oc < (g + 1) * cout_g; ++oc) {
                for (int64_t ic = 0; ic < cin_g; ++ic) {
                    for (int64_t ky = 0; ky < spec.kernelH; ++ky) {
                        for (int64_t kx = 0; kx < spec.kernelW; ++kx) {
                            float acc = grad_w.at4(oc, ic, ky, kx);
                            for (int64_t y = 0; y < oh; ++y) {
                                for (int64_t x = 0; x < ow; ++x) {
                                    const int64_t iy =
                                        y * spec.stride - spec.pad + ky;
                                    const int64_t ix =
                                        x * spec.stride - spec.pad + kx;
                                    acc += gradOut.at4(b, oc, y, x) *
                                           paddedAt(input, b,
                                                    g * cin_g + ic, iy, ix);
                                }
                            }
                            grad_w.at4(oc, ic, ky, kx) = acc;
                        }
                    }
                }
            }
        }
    }
    return grad_w;
}

inline Tensor
conv2dBackwardInput(const Tensor &gradOut, const Tensor &weight,
                    const ConvSpec &spec, int64_t in_h, int64_t in_w)
{
    const int64_t n = gradOut.dim(0);
    const int64_t oh = gradOut.dim(2);
    const int64_t ow = gradOut.dim(3);
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor grad_in({n, spec.inChannels, in_h, in_w});

    // Scatter formulation of Eq. 2: each output gradient contributes to
    // the input positions its receptive field covered.
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            for (int64_t oc = g * cout_g; oc < (g + 1) * cout_g; ++oc) {
                for (int64_t y = 0; y < oh; ++y) {
                    for (int64_t x = 0; x < ow; ++x) {
                        const float go = gradOut.at4(b, oc, y, x);
                        if (go == 0.0f)
                            continue;
                        for (int64_t ic = 0; ic < cin_g; ++ic) {
                            for (int64_t ky = 0; ky < spec.kernelH; ++ky) {
                                for (int64_t kx = 0; kx < spec.kernelW;
                                     ++kx) {
                                    const int64_t iy =
                                        y * spec.stride - spec.pad + ky;
                                    const int64_t ix =
                                        x * spec.stride - spec.pad + kx;
                                    if (iy < 0 || ix < 0 || iy >= in_h ||
                                        ix >= in_w) {
                                        continue;
                                    }
                                    grad_in.at4(b, g * cin_g + ic, iy,
                                                ix) +=
                                        go * weight.at4(oc, ic, ky, kx);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

inline Tensor
conv2dBackwardBias(const Tensor &gradOut)
{
    const int64_t c = gradOut.dim(1);
    Tensor grad_b({c});
    for (int64_t b = 0; b < gradOut.dim(0); ++b)
        for (int64_t oc = 0; oc < c; ++oc)
            for (int64_t y = 0; y < gradOut.dim(2); ++y)
                for (int64_t x = 0; x < gradOut.dim(3); ++x)
                    grad_b[oc] += gradOut.at4(b, oc, y, x);
    return grad_b;
}

inline Tensor
matmul(const Tensor &a, const Tensor &b)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t p = 0; p < k; ++p) {
            const float av = a.at2(i, p);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < n; ++j)
                out.at2(i, j) += av * b.at2(p, j);
        }
    }
    return out;
}

inline Tensor
matmulTransposeB(const Tensor &a, const Tensor &b)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += a.at2(i, p) * b.at2(j, p);
            out.at2(i, j) = acc;
        }
    }
    return out;
}

inline Tensor
transpose2d(const Tensor &a)
{
    Tensor out({a.dim(1), a.dim(0)});
    for (int64_t i = 0; i < a.dim(0); ++i)
        for (int64_t j = 0; j < a.dim(1); ++j)
            out.at2(j, i) = a.at2(i, j);
    return out;
}

inline Tensor
reluForward(const Tensor &x)
{
    Tensor out = x;
    for (int64_t i = 0; i < out.numel(); ++i)
        out[i] = std::max(0.0f, out[i]);
    return out;
}

inline Tensor
reluBackward(const Tensor &x, const Tensor &grad)
{
    Tensor out = grad;
    for (int64_t i = 0; i < out.numel(); ++i)
        if (x[i] <= 0.0f)
            out[i] = 0.0f;
    return out;
}

inline Tensor
maxPool2x2Forward(const Tensor &x, std::vector<int32_t> &argmax)
{
    const int64_t n = x.dim(0), c = x.dim(1);
    const int64_t oh = x.dim(2) / 2, ow = x.dim(3) / 2;
    Tensor out({n, c, oh, ow});
    argmax.assign(static_cast<size_t>(out.numel()), 0);
    int64_t idx = 0;
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t ch = 0; ch < c; ++ch) {
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t w = 0; w < ow; ++w, ++idx) {
                    float best = x.at4(b, ch, 2 * y, 2 * w);
                    int32_t best_off =
                        static_cast<int32_t>(x.offset4(b, ch, 2 * y, 2 * w));
                    for (int dy = 0; dy < 2; ++dy) {
                        for (int dx = 0; dx < 2; ++dx) {
                            const float v =
                                x.at4(b, ch, 2 * y + dy, 2 * w + dx);
                            if (v > best) {
                                best = v;
                                best_off = static_cast<int32_t>(
                                    x.offset4(b, ch, 2 * y + dy,
                                              2 * w + dx));
                            }
                        }
                    }
                    out[idx] = best;
                    argmax[static_cast<size_t>(idx)] = best_off;
                }
            }
        }
    }
    return out;
}

inline Tensor
maxPool2x2Backward(const Tensor &x, const Tensor &gradOut,
                   const std::vector<int32_t> &argmax)
{
    Tensor grad_in(x.shape());
    for (int64_t i = 0; i < gradOut.numel(); ++i)
        grad_in[argmax[static_cast<size_t>(i)]] += gradOut[i];
    return grad_in;
}

inline Tensor
globalAvgPoolForward(const Tensor &x)
{
    const int64_t n = x.dim(0), c = x.dim(1);
    const float scale = 1.0f / static_cast<float>(x.dim(2) * x.dim(3));
    Tensor out({n, c});
    for (int64_t b = 0; b < n; ++b)
        for (int64_t ch = 0; ch < c; ++ch) {
            float acc = 0.0f;
            for (int64_t y = 0; y < x.dim(2); ++y)
                for (int64_t w = 0; w < x.dim(3); ++w)
                    acc += x.at4(b, ch, y, w);
            out.at2(b, ch) = acc * scale;
        }
    return out;
}

inline Tensor
globalAvgPoolBackward(const Tensor &x, const Tensor &gradOut)
{
    Tensor grad_in(x.shape());
    const float scale = 1.0f / static_cast<float>(x.dim(2) * x.dim(3));
    for (int64_t b = 0; b < x.dim(0); ++b)
        for (int64_t ch = 0; ch < x.dim(1); ++ch) {
            const float g = gradOut.at2(b, ch) * scale;
            for (int64_t y = 0; y < x.dim(2); ++y)
                for (int64_t w = 0; w < x.dim(3); ++w)
                    grad_in.at4(b, ch, y, w) = g;
        }
    return grad_in;
}

} // namespace oracle

#endif // MERCURY_TESTS_NAIVE_OPS_HPP
