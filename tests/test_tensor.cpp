/**
 * @file
 * Unit tests for the tensor substrate: shapes, convolution forward
 * and backward (validated with numerical gradients), im2col, matmul,
 * pooling, activations, and losses.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

/** Central-difference numerical gradient of a scalar function. */
float
numericalGrad(const std::function<float()> &f, float &param)
{
    const float eps = 1e-3f;
    const float saved = param;
    param = saved + eps;
    const float hi = f();
    param = saved - eps;
    const float lo = f();
    param = saved;
    return (hi - lo) / (2 * eps);
}

TEST(Tensor, ZeroFilledConstruction)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    EXPECT_EQ(t.rank(), 2);
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ShapeDataConstruction)
{
    Tensor t({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at2(0, 1), 2.0f);
    EXPECT_EQ(t.at2(1, 0), 3.0f);
}

TEST(Tensor, ShapeDataMismatchDies)
{
    EXPECT_DEATH(Tensor({2, 2}, {1.0f}), "mismatch");
}

TEST(Tensor, NegativeDimIndexing)
{
    Tensor t({2, 3, 4, 5});
    EXPECT_EQ(t.dim(-1), 5);
    EXPECT_EQ(t.dim(-4), 2);
}

TEST(Tensor, At4RowMajorLayout)
{
    Tensor t({1, 2, 2, 2});
    t.at4(0, 1, 1, 1) = 9.0f;
    EXPECT_EQ(t[7], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
    t.reshape({3, 2});
    EXPECT_EQ(t.at2(2, 1), 6.0f);
}

TEST(Tensor, ReshapeChangedCountDies)
{
    Tensor t({2, 3});
    EXPECT_DEATH(t.reshape({5}), "element count");
}

TEST(Tensor, FillAndEquality)
{
    Tensor a({4}), b({4});
    a.fill(2.5f);
    b.fill(2.5f);
    EXPECT_TRUE(a == b);
    b[2] = 0.0f;
    EXPECT_FALSE(a == b);
}

TEST(Tensor, MaxAbsDiff)
{
    Tensor a({3}, {1, 2, 3});
    Tensor b({3}, {1, 2.5, 3});
    EXPECT_FLOAT_EQ(a.maxAbsDiff(b), 0.5f);
}

TEST(Tensor, ShapeStr)
{
    Tensor t({2, 7});
    EXPECT_EQ(t.shapeStr(), "(2, 7)");
}

TEST(Tensor, FillNormalProducesSpread)
{
    Tensor t({1000});
    Rng rng(13);
    t.fillNormal(rng, 0.0f, 1.0f);
    float mn = 1e9f, mx = -1e9f;
    for (int64_t i = 0; i < t.numel(); ++i) {
        mn = std::min(mn, t[i]);
        mx = std::max(mx, t[i]);
    }
    EXPECT_LT(mn, -1.0f);
    EXPECT_GT(mx, 1.0f);
}

TEST(ConvForward, HandComputed3x3)
{
    // 1x1x3x3 input, single 2x2 all-ones filter, stride 1, no pad.
    Tensor in({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor w({1, 1, 2, 2}, {1, 1, 1, 1});
    ConvSpec spec;
    spec.inChannels = 1;
    spec.outChannels = 1;
    spec.kernelH = spec.kernelW = 2;
    Tensor out = conv2dForward(in, w, Tensor(), spec);
    ASSERT_EQ(out.shape(), (std::vector<int64_t>{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1 + 2 + 4 + 5);
    EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 2 + 3 + 5 + 6);
    EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), 4 + 5 + 7 + 8);
    EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 5 + 6 + 8 + 9);
}

TEST(ConvForward, BiasIsAdded)
{
    Tensor in({1, 1, 2, 2}, {1, 1, 1, 1});
    Tensor w({1, 1, 2, 2}, {1, 1, 1, 1});
    Tensor b({1}, {10.0f});
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 2;
    Tensor out = conv2dForward(in, w, b, spec);
    EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 14.0f);
}

TEST(ConvForward, PaddingGrowsOutput)
{
    Tensor in({1, 1, 3, 3});
    in.fill(1.0f);
    Tensor w({1, 1, 3, 3});
    w.fill(1.0f);
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    Tensor out = conv2dForward(in, w, Tensor(), spec);
    ASSERT_EQ(out.shape(), (std::vector<int64_t>{1, 1, 3, 3}));
    // Center sees all 9 ones; corner sees only 4.
    EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 9.0f);
    EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 4.0f);
}

TEST(ConvForward, StrideSkipsPositions)
{
    Tensor in({1, 1, 4, 4});
    in.fill(1.0f);
    Tensor w({1, 1, 2, 2});
    w.fill(1.0f);
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 2;
    spec.stride = 2;
    Tensor out = conv2dForward(in, w, Tensor(), spec);
    ASSERT_EQ(out.shape(), (std::vector<int64_t>{1, 1, 2, 2}));
}

TEST(ConvForward, GroupedConvSeparatesChannels)
{
    // Two input channels, two groups: each output channel sees only
    // its own input channel.
    Tensor in({1, 2, 2, 2});
    for (int64_t i = 0; i < 4; ++i)
        in[i] = 1.0f; // channel 0 = 1, channel 1 = 2
    for (int64_t i = 4; i < 8; ++i)
        in[i] = 2.0f;
    Tensor w({2, 1, 2, 2});
    w.fill(1.0f);
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 2;
    spec.kernelH = spec.kernelW = 2;
    spec.groups = 2;
    Tensor out = conv2dForward(in, w, Tensor(), spec);
    EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 4.0f);
    EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 8.0f);
}

TEST(ConvBackward, WeightGradientMatchesNumerical)
{
    Rng rng(21);
    Tensor in({2, 2, 5, 5});
    in.fillNormal(rng);
    Tensor w({3, 2, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 3;
    spec.kernelH = spec.kernelW = 3;

    // Loss = sum of outputs, so dL/dOut = all ones.
    auto loss = [&]() {
        Tensor out = conv2dForward(in, w, Tensor(), spec);
        float s = 0;
        for (int64_t i = 0; i < out.numel(); ++i)
            s += out[i];
        return s;
    };
    Tensor grad_out({2, 3, 3, 3});
    grad_out.fill(1.0f);
    Tensor gw = conv2dBackwardWeight(in, grad_out, spec);

    for (int64_t idx : {0L, 5L, 17L, 33L, 53L}) {
        const float num = numericalGrad(loss, w.data()[idx]);
        EXPECT_NEAR(gw[idx], num, 5e-2f) << "weight index " << idx;
    }
}

TEST(ConvBackward, InputGradientMatchesNumerical)
{
    Rng rng(22);
    Tensor in({1, 2, 5, 5});
    in.fillNormal(rng);
    Tensor w({2, 2, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 2;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    spec.stride = 2;

    auto loss = [&]() {
        Tensor out = conv2dForward(in, w, Tensor(), spec);
        float s = 0;
        for (int64_t i = 0; i < out.numel(); ++i)
            s += out[i];
        return s;
    };
    Tensor grad_out({1, 2, 3, 3});
    grad_out.fill(1.0f);
    Tensor gi = conv2dBackwardInput(grad_out, w, spec, 5, 5);

    for (int64_t idx : {0L, 7L, 12L, 24L, 49L}) {
        const float num = numericalGrad(loss, in.data()[idx]);
        EXPECT_NEAR(gi[idx], num, 5e-2f) << "input index " << idx;
    }
}

TEST(ConvBackward, BiasGradientSumsGradients)
{
    Tensor grad_out({2, 2, 2, 2});
    grad_out.fill(1.0f);
    Tensor gb = conv2dBackwardBias(grad_out);
    ASSERT_EQ(gb.numel(), 2);
    EXPECT_FLOAT_EQ(gb[0], 8.0f);
    EXPECT_FLOAT_EQ(gb[1], 8.0f);
}

/** A 2 -> 3 channel 3x3 conv over 6x6 inputs: gradOut is (1, 3, 4, 4). */
ConvSpec
backwardSpec()
{
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 3;
    spec.kernelH = spec.kernelW = 3;
    return spec;
}

TEST(ConvBackward, GradOutChannelMismatchDies)
{
    const ConvSpec spec = backwardSpec();
    Tensor in({1, 2, 6, 6}), w({3, 2, 3, 3});
    Tensor one_channel({1, 1, 4, 4}); // 1 channel against 3 filters
    EXPECT_DEATH(conv2dBackwardWeight(in, one_channel, spec),
                 "gradOut shape");
    EXPECT_DEATH(conv2dBackwardInput(one_channel, w, spec, 6, 6),
                 "gradOut shape");
}

TEST(ConvBackward, GradOutSpatialMismatchDies)
{
    const ConvSpec spec = backwardSpec();
    Tensor in({1, 2, 6, 6}), w({3, 2, 3, 3});
    Tensor wrong_h({1, 3, 5, 4}), wrong_w({1, 3, 4, 3});
    EXPECT_DEATH(conv2dBackwardWeight(in, wrong_h, spec), "gradOut shape");
    EXPECT_DEATH(conv2dBackwardWeight(in, wrong_w, spec), "gradOut shape");
    EXPECT_DEATH(conv2dBackwardInput(wrong_h, w, spec, 6, 6),
                 "gradOut shape");
    EXPECT_DEATH(conv2dBackwardInput(wrong_w, w, spec, 6, 6),
                 "gradOut shape");
    // A batch that differs from the input's.
    Tensor two_images({2, 3, 4, 4});
    EXPECT_DEATH(conv2dBackwardWeight(in, two_images, spec),
                 "gradOut shape");
}

TEST(ConvBackward, WrongInputSizeDies)
{
    const ConvSpec spec = backwardSpec();
    Tensor grad_out({1, 3, 4, 4}), w({3, 2, 3, 3});
    EXPECT_DEATH(conv2dBackwardInput(grad_out, w, spec, 7, 6),
                 "gradOut shape");
    EXPECT_DEATH(conv2dBackwardInput(grad_out, w, spec, 6, 5),
                 "gradOut shape");
    Tensor wrong_channels({1, 1, 6, 6});
    EXPECT_DEATH(conv2dBackwardWeight(wrong_channels, grad_out, spec),
                 "input channels");
}

TEST(ConvBackward, WrongWeightShapeDies)
{
    const ConvSpec spec = backwardSpec();
    Tensor grad_out({1, 3, 4, 4});
    Tensor too_few_filters({2, 2, 3, 3}), wrong_kernel({3, 2, 3, 2});
    EXPECT_DEATH(conv2dBackwardInput(grad_out, too_few_filters, spec, 6, 6),
                 "weight shape");
    EXPECT_DEATH(conv2dBackwardInput(grad_out, wrong_kernel, spec, 6, 6),
                 "weight shape");
}

TEST(ConvForward, NonPositiveSpecDies)
{
    ConvSpec spec = backwardSpec();
    spec.stride = 0;
    Tensor in({1, 2, 6, 6}), w({3, 2, 3, 3});
    EXPECT_DEATH(conv2dForward(in, w, Tensor(), spec), "conv spec");
}

TEST(ConvForward, WrongBiasSizeDies)
{
    const ConvSpec spec = backwardSpec();
    Tensor in({1, 2, 6, 6}), w({3, 2, 3, 3}), bias({2});
    EXPECT_DEATH(conv2dForward(in, w, bias, spec), "bias");
}

TEST(Im2col, RowCountAndContent)
{
    Tensor in({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 2;
    Tensor cols = im2col(in, spec);
    ASSERT_EQ(cols.shape(), (std::vector<int64_t>{4, 4}));
    // First patch is the top-left 2x2 window.
    EXPECT_FLOAT_EQ(cols.at2(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(cols.at2(0, 3), 5.0f);
    // Last patch is the bottom-right window.
    EXPECT_FLOAT_EQ(cols.at2(3, 0), 5.0f);
    EXPECT_FLOAT_EQ(cols.at2(3, 3), 9.0f);
}

TEST(Im2col, MatmulEquivalentToConv)
{
    // conv(in, w) == im2col(in) x flatten(w)^T for a single group.
    Rng rng(23);
    Tensor in({1, 3, 6, 6});
    in.fillNormal(rng);
    Tensor w({4, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;

    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    Tensor cols = im2col(in, spec);
    Tensor wf = w;
    wf.reshape({4, 27});
    Tensor out = matmulTransposeB(cols, wf); // (16, 4)
    for (int64_t v = 0; v < 16; ++v)
        for (int64_t f = 0; f < 4; ++f) {
            const int64_t y = v / 4, x = v % 4;
            EXPECT_NEAR(out.at2(v, f), ref.at4(0, f, y, x), 1e-4f);
        }
}

TEST(Matmul, KnownProduct)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 2}, {5, 6, 7, 8});
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at2(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 1), 50.0f);
}

TEST(Matmul, ShapeMismatchDies)
{
    Tensor a({2, 3}), b({2, 3});
    EXPECT_DEATH(matmul(a, b), "mismatch");
}

TEST(Matmul, TransposeBEquivalence)
{
    Rng rng(24);
    Tensor a({3, 5}), b({4, 5});
    a.fillNormal(rng);
    b.fillNormal(rng);
    Tensor direct = matmulTransposeB(a, b);
    Tensor viaT = matmul(a, transpose2d(b));
    EXPECT_LT(direct.maxAbsDiff(viaT), 1e-5f);
}

TEST(Transpose, SwapsIndices)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor t = transpose2d(a);
    EXPECT_EQ(t.shape(), (std::vector<int64_t>{3, 2}));
    EXPECT_FLOAT_EQ(t.at2(2, 1), 6.0f);
}

TEST(Relu, ForwardClampsNegatives)
{
    Tensor x({4}, {-1, 0, 2, -3});
    Tensor y = reluForward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(Relu, BackwardMasksGradient)
{
    Tensor x({4}, {-1, 1, 2, -3});
    Tensor g({4}, {10, 10, 10, 10});
    Tensor gx = reluBackward(x, g);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
    EXPECT_FLOAT_EQ(gx[1], 10.0f);
    EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(MaxPool, ForwardPicksMaxAndBackwardRoutes)
{
    Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
    std::vector<int32_t> argmax;
    Tensor y = maxPool2x2Forward(x, argmax);
    ASSERT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 5.0f);

    Tensor gy({1, 1, 1, 1}, {2.0f});
    Tensor gx = maxPool2x2Backward(x, gy, argmax);
    EXPECT_FLOAT_EQ(gx[1], 2.0f);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
}

TEST(GlobalAvgPool, ForwardAveragesAndBackwardSpreads)
{
    Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
    Tensor y = globalAvgPoolForward(x);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
    Tensor gy({1, 1}, {4.0f});
    Tensor gx = globalAvgPoolBackward(x, gy);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(gx[i], 1.0f);
}

TEST(SoftmaxXent, UniformLogitsGiveLogK)
{
    Tensor logits({1, 4});
    std::vector<int> labels{2};
    Tensor grad;
    const float loss = softmaxCrossEntropy(logits, labels, grad);
    EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
    // Gradient sums to zero per row.
    float s = 0;
    for (int64_t j = 0; j < 4; ++j)
        s += grad.at2(0, j);
    EXPECT_NEAR(s, 0.0f, 1e-6f);
}

TEST(SoftmaxXent, GradientMatchesNumerical)
{
    Rng rng(25);
    Tensor logits({3, 5});
    logits.fillNormal(rng);
    std::vector<int> labels{1, 4, 0};
    Tensor grad;
    softmaxCrossEntropy(logits, labels, grad);

    auto loss = [&]() {
        Tensor g;
        return softmaxCrossEntropy(logits, labels, g);
    };
    for (int64_t idx : {0L, 6L, 14L}) {
        const float num = numericalGrad(loss, logits.data()[idx]);
        EXPECT_NEAR(grad[idx], num, 1e-3f);
    }
}

TEST(SoftmaxRows, RowsSumToOne)
{
    Rng rng(26);
    Tensor x({4, 7});
    x.fillNormal(rng, 0.0f, 3.0f);
    Tensor p = softmaxRows(x);
    for (int64_t i = 0; i < 4; ++i) {
        float s = 0;
        for (int64_t j = 0; j < 7; ++j) {
            s += p.at2(i, j);
            EXPECT_GE(p.at2(i, j), 0.0f);
        }
        EXPECT_NEAR(s, 1.0f, 1e-5f);
    }
}

TEST(MacCount, MatchesClosedForm)
{
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 8;
    spec.kernelH = spec.kernelW = 3;
    // out = 6x6 for 8x8 input
    EXPECT_EQ(convMacCount(2, 8, 8, spec),
              2ull * 6 * 6 * 8 * 3 * 3 * 3);
}

} // namespace
} // namespace mercury
