/**
 * @file
 * Seeded bit-identity test of the exact tensor ops against the scalar
 * nested loops in naive_ops.hpp. The library ops reorder their loops
 * so the compiler vectorizes them, and must still give every output
 * element the same sequence of IEEE operations, so results are
 * compared with memcmp: Tensor::operator== would let -0.0 pass for
 * +0.0.
 *
 * Each seed draws one conv geometry — kernel 1, 3 or 5 per axis,
 * stride 1–2, pad 0–1, groups 1, 2 or depthwise, batch 1–3, H and W
 * in [3, 13], bias on or off — with exact zeros of both signs in the
 * inputs and gradients, as after a ReLU. Odd sizes put every input
 * row under some tap; even ones at stride 2 leave a trailing row no
 * tap reaches. A mismatch prints the seed
 * and the geometry, so it replays exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "naive_ops.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

constexpr uint64_t kConvSeeds = 400;

/** One drawn conv geometry. */
struct ConvCase
{
    uint64_t seed = 0;
    int64_t batch = 1;
    int64_t h = 3, w = 3;
    ConvSpec spec;
    bool bias = false;
};

std::ostream &
operator<<(std::ostream &os, const ConvCase &c)
{
    return os << "seed " << c.seed << ": batch " << c.batch << ", "
              << c.spec.inChannels << "->" << c.spec.outChannels << " "
              << c.h << "x" << c.w << ", k" << c.spec.kernelH << "x"
              << c.spec.kernelW << " s" << c.spec.stride << " p"
              << c.spec.pad << " groups " << c.spec.groups
              << (c.bias ? ", bias" : ", no bias");
}

int64_t
pick(Rng &rng, int64_t lo, int64_t hi)
{
    return lo + static_cast<int64_t>(
                    rng.uniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

ConvCase
drawConv(uint64_t seed)
{
    Rng rng(seed);
    ConvCase c;
    c.seed = seed;
    const int64_t kernels[] = {1, 3, 5};
    c.spec.kernelH = kernels[rng.uniformInt(3)];
    c.spec.kernelW = kernels[rng.uniformInt(3)];
    c.spec.stride = pick(rng, 1, 2);
    c.spec.pad = pick(rng, 0, 1);
    c.batch = pick(rng, 1, 3);
    c.h = pick(rng, 3, 13);
    c.w = pick(rng, 3, 13);
    // The kernel must fit the padded input.
    c.h = std::max(c.h, c.spec.kernelH - 2 * c.spec.pad);
    c.w = std::max(c.w, c.spec.kernelW - 2 * c.spec.pad);
    switch (rng.uniformInt(3)) {
    case 0:
        c.spec.groups = 1;
        c.spec.inChannels = pick(rng, 1, 4);
        c.spec.outChannels = pick(rng, 1, 5);
        break;
    case 1:
        c.spec.groups = 2;
        c.spec.inChannels = 2 * pick(rng, 1, 3);
        c.spec.outChannels = 2 * pick(rng, 1, 3);
        break;
    default: // depthwise
        c.spec.groups = pick(rng, 2, 5);
        c.spec.inChannels = c.spec.outChannels = c.spec.groups;
        break;
    }
    c.bias = rng.bernoulli(0.5);
    return c;
}

/**
 * Normal samples with about a third replaced by exact zeros, as after
 * a ReLU; half of those zeros are -0.0, which the skip-free dX scatter
 * must treat as the textbook loop's skip did.
 */
Tensor
sparseNormal(std::vector<int64_t> shape, Rng &rng)
{
    Tensor t(std::move(shape));
    t.fillNormal(rng);
    for (int64_t i = 0; i < t.numel(); ++i) {
        if (rng.bernoulli(0.35))
            t[i] = rng.bernoulli(0.5) ? -0.0f : 0.0f;
    }
    return t;
}

/** Shape and every bit equal; reports the first differing element. */
::testing::AssertionResult
sameBits(const Tensor &got, const Tensor &want)
{
    if (got.shape() != want.shape())
        return ::testing::AssertionFailure()
               << "shape " << got.shapeStr() << " != " << want.shapeStr();
    if (got.numel() == 0 ||
        std::memcmp(got.data(), want.data(),
                    static_cast<size_t>(got.numel()) * sizeof(float)) == 0)
        return ::testing::AssertionSuccess();
    for (int64_t i = 0; i < got.numel(); ++i) {
        if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << got[i] << " != oracle "
                   << want[i];
    }
    return ::testing::AssertionFailure() << "memcmp mismatch";
}

TEST(ExactOps, ConvOpsMatchOracleBitForBit)
{
    for (uint64_t seed = 1; seed <= kConvSeeds; ++seed) {
        const ConvCase c = drawConv(seed);
        SCOPED_TRACE(::testing::Message() << c);
        const ConvSpec &spec = c.spec;
        Rng rng(seed * 7919 + 3);
        const Tensor input =
            sparseNormal({c.batch, spec.inChannels, c.h, c.w}, rng);
        Tensor weight({spec.outChannels, spec.inChannels / spec.groups,
                       spec.kernelH, spec.kernelW});
        weight.fillNormal(rng);
        Tensor bias;
        if (c.bias) {
            bias = Tensor({spec.outChannels});
            bias.fillNormal(rng);
        }
        const Tensor grad_out = sparseNormal(
            {c.batch, spec.outChannels, spec.outH(c.h), spec.outW(c.w)}, rng);

        EXPECT_TRUE(sameBits(conv2dForward(input, weight, bias, spec),
                             oracle::conv2dForward(input, weight, bias, spec)))
            << "conv2dForward";
        EXPECT_TRUE(
            sameBits(conv2dBackwardWeight(input, grad_out, spec),
                     oracle::conv2dBackwardWeight(input, grad_out, spec)))
            << "conv2dBackwardWeight";
        EXPECT_TRUE(sameBits(
            conv2dBackwardInput(grad_out, weight, spec, c.h, c.w),
            oracle::conv2dBackwardInput(grad_out, weight, spec, c.h, c.w)))
            << "conv2dBackwardInput";
        EXPECT_TRUE(sameBits(conv2dBackwardBias(grad_out),
                             oracle::conv2dBackwardBias(grad_out)))
            << "conv2dBackwardBias";
        if (HasFailure())
            return;
    }
}

TEST(ExactOps, ConvSeedsCoverEveryVariant)
{
    bool kernel[6] = {}, stride[3] = {}, pad[2] = {}, bias[2] = {};
    bool batch[4] = {}, grouped = false, depthwise = false, dense = false;
    bool odd_size = false, stride_tail = false;
    for (uint64_t seed = 1; seed <= kConvSeeds; ++seed) {
        const ConvCase c = drawConv(seed);
        kernel[c.spec.kernelH] = kernel[c.spec.kernelW] = true;
        stride[c.spec.stride] = true;
        pad[c.spec.pad] = true;
        bias[c.bias] = true;
        batch[c.batch] = true;
        dense |= c.spec.groups == 1;
        grouped |= c.spec.groups == 2 && c.spec.inChannels > 2;
        depthwise |= c.spec.groups > 2;
        odd_size |= c.h % 2 == 1 && c.w % 2 == 1;
        // Trailing input rows that no stride-2 tap reaches.
        stride_tail |= (c.h + 2 * c.spec.pad - c.spec.kernelH) %
                           c.spec.stride != 0;
    }
    EXPECT_TRUE(kernel[1] && kernel[3] && kernel[5]);
    EXPECT_TRUE(stride[1] && stride[2]);
    EXPECT_TRUE(pad[0] && pad[1]);
    EXPECT_TRUE(bias[0] && bias[1]);
    EXPECT_TRUE(batch[1] && batch[2] && batch[3]);
    EXPECT_TRUE(dense && grouped && depthwise);
    EXPECT_TRUE(odd_size && stride_tail);
}

constexpr uint64_t kWideSeeds = 120;

/**
 * A second seeded set of wide planes for the kernel table's register
 * tiles: H and W in [1, 40], so planes hold whole column octets, a
 * partial last octet or both, up to 16 filters, pad 0-2, groups 1 or 2.
 */
ConvCase
drawWideConv(uint64_t seed)
{
    Rng rng(seed * 104729 + 17);
    ConvCase c;
    c.seed = seed;
    const int64_t kernels[] = {1, 3, 5};
    c.spec.kernelH = kernels[rng.uniformInt(3)];
    c.spec.kernelW = kernels[rng.uniformInt(3)];
    c.spec.stride = pick(rng, 1, 2);
    c.spec.pad = pick(rng, 0, 2);
    c.batch = pick(rng, 1, 2);
    c.h = std::max(pick(rng, 1, 40), c.spec.kernelH - 2 * c.spec.pad);
    c.w = std::max(pick(rng, 1, 40), c.spec.kernelW - 2 * c.spec.pad);
    c.spec.groups = pick(rng, 1, 2);
    c.spec.inChannels = c.spec.groups * pick(rng, 1, 2);
    c.spec.outChannels = c.spec.groups * pick(rng, 1, 16 / c.spec.groups);
    c.bias = rng.bernoulli(0.5);
    return c;
}

TEST(ExactOps, WideConvOpsMatchOracleUnderBothKernelTables)
{
    std::vector<const kernels::KernelOps *> tables = {&kernels::scalarOps()};
    if (const kernels::KernelOps *ax = kernels::avx2Ops())
        tables.push_back(ax);
    for (uint64_t seed = 1; seed <= kWideSeeds; ++seed) {
        const ConvCase c = drawWideConv(seed);
        const ConvSpec &spec = c.spec;
        Rng rng(seed * 6007 + 5);
        const Tensor input =
            sparseNormal({c.batch, spec.inChannels, c.h, c.w}, rng);
        Tensor weight({spec.outChannels, spec.inChannels / spec.groups,
                       spec.kernelH, spec.kernelW});
        weight.fillNormal(rng);
        Tensor bias;
        if (c.bias) {
            bias = Tensor({spec.outChannels});
            bias.fillNormal(rng);
        }
        const Tensor grad_out = sparseNormal(
            {c.batch, spec.outChannels, spec.outH(c.h), spec.outW(c.w)}, rng);
        const Tensor fwd = oracle::conv2dForward(input, weight, bias, spec);
        const Tensor dw = oracle::conv2dBackwardWeight(input, grad_out, spec);
        const Tensor dx =
            oracle::conv2dBackwardInput(grad_out, weight, spec, c.h, c.w);
        for (const kernels::KernelOps *table : tables) {
            SCOPED_TRACE(::testing::Message() << c << ", " << table->name);
            kernels::forceForTesting(table);
            EXPECT_TRUE(sameBits(conv2dForward(input, weight, bias, spec), fwd))
                << "conv2dForward";
            EXPECT_TRUE(sameBits(conv2dBackwardWeight(input, grad_out, spec),
                                 dw))
                << "conv2dBackwardWeight";
            EXPECT_TRUE(sameBits(
                conv2dBackwardInput(grad_out, weight, spec, c.h, c.w), dx))
                << "conv2dBackwardInput";
            kernels::forceForTesting(nullptr);
        }
        if (HasFailure())
            return;
    }
}

TEST(ExactOps, WideConvSeedsCoverTheTiles)
{
    bool out_tail = false, in_tail = false, whole_and_tail = false;
    bool odd_filters = false, stride2 = false, pad2 = false;
    for (uint64_t seed = 1; seed <= kWideSeeds; ++seed) {
        const ConvCase c = drawWideConv(seed);
        const int64_t ow = c.spec.outW(c.w);
        const int64_t cout_g = c.spec.outChannels / c.spec.groups;
        // The forward's octets run over output columns, the input
        // gradient's over input columns.
        out_tail |= ow % 8 != 0;
        in_tail |= c.w % 8 != 0;
        whole_and_tail |= ow > 8 && ow % 8 != 0 && c.w > 8 && c.w % 8 != 0;
        odd_filters |= cout_g % 2 == 1 && cout_g > 4;
        stride2 |= c.spec.stride == 2 && c.w > 8;
        pad2 |= c.spec.pad == 2;
    }
    EXPECT_TRUE(out_tail && in_tail && whole_and_tail);
    EXPECT_TRUE(odd_filters && stride2 && pad2);
}

constexpr uint64_t kTileSeeds = 90;

/**
 * A third seeded set for the kernel tiles of the backward ops: 1-9
 * input channels per group (the input gradient's filters, up to 4 per
 * convForward tile), 1-40 output channels per group (the weight
 * gradient's filter octets, up to 3 per ownerWeightMul group, and the
 * bias gradient's 4-filter chains), H and W in [1, 40], kernel 1, 3 or
 * 5 per axis, stride 1-2, pad 0-2, groups 1-2.
 */
ConvCase
drawTileConv(uint64_t seed)
{
    Rng rng(seed * 7727 + 29);
    ConvCase c;
    c.seed = seed;
    const int64_t kernels[] = {1, 3, 5};
    c.spec.kernelH = kernels[rng.uniformInt(3)];
    c.spec.kernelW = kernels[rng.uniformInt(3)];
    c.spec.stride = pick(rng, 1, 2);
    c.spec.pad = pick(rng, 0, 2);
    c.batch = pick(rng, 1, 2);
    c.h = std::max(pick(rng, 1, 40), c.spec.kernelH - 2 * c.spec.pad);
    c.w = std::max(pick(rng, 1, 40), c.spec.kernelW - 2 * c.spec.pad);
    c.spec.groups = pick(rng, 1, 2);
    c.spec.inChannels = c.spec.groups * pick(rng, 1, 9);
    c.spec.outChannels = c.spec.groups * pick(rng, 1, 40);
    c.bias = rng.bernoulli(0.5);
    return c;
}

TEST(ExactOps, BackwardTilesMatchOracleUnderBothKernelTables)
{
    std::vector<const kernels::KernelOps *> tables = {&kernels::scalarOps()};
    if (const kernels::KernelOps *ax = kernels::avx2Ops())
        tables.push_back(ax);
    for (uint64_t seed = 1; seed <= kTileSeeds; ++seed) {
        const ConvCase c = drawTileConv(seed);
        const ConvSpec &spec = c.spec;
        Rng rng(seed * 3571 + 11);
        const Tensor input =
            sparseNormal({c.batch, spec.inChannels, c.h, c.w}, rng);
        Tensor weight({spec.outChannels, spec.inChannels / spec.groups,
                       spec.kernelH, spec.kernelW});
        weight.fillNormal(rng);
        Tensor bias;
        if (c.bias) {
            bias = Tensor({spec.outChannels});
            bias.fillNormal(rng);
        }
        const Tensor grad_out = sparseNormal(
            {c.batch, spec.outChannels, spec.outH(c.h), spec.outW(c.w)}, rng);
        const Tensor fwd = oracle::conv2dForward(input, weight, bias, spec);
        const Tensor dw = oracle::conv2dBackwardWeight(input, grad_out, spec);
        const Tensor dx =
            oracle::conv2dBackwardInput(grad_out, weight, spec, c.h, c.w);
        const Tensor db = oracle::conv2dBackwardBias(grad_out);
        for (const kernels::KernelOps *table : tables) {
            SCOPED_TRACE(::testing::Message() << c << ", " << table->name);
            kernels::forceForTesting(table);
            EXPECT_TRUE(sameBits(conv2dForward(input, weight, bias, spec), fwd))
                << "conv2dForward";
            EXPECT_TRUE(sameBits(
                conv2dBackwardInput(grad_out, weight, spec, c.h, c.w), dx))
                << "conv2dBackwardInput";
            EXPECT_TRUE(sameBits(conv2dBackwardWeight(input, grad_out, spec),
                                 dw))
                << "conv2dBackwardWeight";
            EXPECT_TRUE(sameBits(conv2dBackwardBias(grad_out), db))
                << "conv2dBackwardBias";
            kernels::forceForTesting(nullptr);
        }
        if (HasFailure())
            return;
    }
}

TEST(ExactOps, BackwardTileSeedsCoverTheTiles)
{
    // dX: the last convForward tile of 1-4 channels, and calls of more
    // than one tile. dW: the last run of 1, 2 or 3 filter octets, each
    // with its last octet whole and partial. Bias: 0-3 filters after
    // the 4-filter chains.
    bool dx_tile[5] = {}, dx_tiles = false, dw_run[4][2] = {};
    bool bias_rest[4] = {}, kernel[6] = {}, stride[3] = {}, pad[3] = {};
    bool groups[3] = {}, small = false, wide = false;
    for (uint64_t seed = 1; seed <= kTileSeeds; ++seed) {
        const ConvCase c = drawTileConv(seed);
        const int64_t cin_g = c.spec.inChannels / c.spec.groups;
        const int64_t cout_g = c.spec.outChannels / c.spec.groups;
        dx_tile[(cin_g - 1) % 4 + 1] = true;
        dx_tiles |= cin_g > 4;
        const int64_t octets = (cout_g + 7) / 8;
        dw_run[(octets - 1) % 3 + 1][cout_g % 8 != 0] = true;
        bias_rest[c.spec.outChannels % 4] = true;
        kernel[c.spec.kernelH] = kernel[c.spec.kernelW] = true;
        stride[c.spec.stride] = true;
        pad[c.spec.pad] = true;
        groups[c.spec.groups] = true;
        small |= c.h < 8 || c.w < 8;
        wide |= c.w > 16 && c.w % 8 != 0;
    }
    for (int t = 1; t <= 4; ++t)
        EXPECT_TRUE(dx_tile[t]) << "no dX tile of " << t << " channels";
    EXPECT_TRUE(dx_tiles);
    for (int r = 1; r <= 3; ++r)
        for (int tail = 0; tail < 2; ++tail)
            EXPECT_TRUE(dw_run[r][tail])
                << "no dW run of " << r << " octets, tail " << tail;
    for (int rest = 0; rest < 4; ++rest)
        EXPECT_TRUE(bias_rest[rest]) << "no bias remainder " << rest;
    EXPECT_TRUE(kernel[1] && kernel[3] && kernel[5]);
    EXPECT_TRUE(stride[1] && stride[2]);
    EXPECT_TRUE(pad[0] && pad[1] && pad[2]);
    EXPECT_TRUE(groups[1] && groups[2]);
    EXPECT_TRUE(small && wide);
}

TEST(ExactOps, MatmulOpsMatchOracleBitForBit)
{
    for (uint64_t seed = 1; seed <= 120; ++seed) {
        Rng rng(seed);
        // Includes empty dimensions.
        const int64_t m = pick(rng, 0, 9), k = pick(rng, 0, 40);
        const int64_t n = pick(rng, 0, 21);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ": (" << m
                                          << ", " << k << ") x (" << k
                                          << ", " << n << ")");
        Tensor a = sparseNormal({m, k}, rng);
        // Whole zero rows, as a dead unit's activations.
        for (int64_t i = 0; i < m; ++i) {
            if (rng.bernoulli(0.25)) {
                for (int64_t p = 0; p < k; ++p)
                    a.at2(i, p) = 0.0f;
            }
        }
        const Tensor b = sparseNormal({k, n}, rng);
        const Tensor bt = sparseNormal({n, k}, rng);

        EXPECT_TRUE(sameBits(matmul(a, b), oracle::matmul(a, b)))
            << "matmul";
        EXPECT_TRUE(sameBits(matmulTransposeB(a, bt),
                             oracle::matmulTransposeB(a, bt)))
            << "matmulTransposeB";
        EXPECT_TRUE(sameBits(transpose2d(a), oracle::transpose2d(a)))
            << "transpose2d";
        if (HasFailure())
            return;
    }
}

/**
 * sparseNormal's values with about one in eight replaced by a value
 * the glue ops must move bit for bit: NaN, +-inf, or a copy of the
 * element before it (an equal pair, so a pool window sees ties beside
 * the +-0 ones).
 */
Tensor
specialValues(std::vector<int64_t> shape, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    Tensor t = sparseNormal(std::move(shape), rng);
    for (int64_t i = 0; i < t.numel(); ++i) {
        if (!rng.bernoulli(0.125))
            continue;
        switch (rng.uniformInt(4)) {
        case 0: t[i] = std::numeric_limits<float>::quiet_NaN(); break;
        case 1: t[i] = inf; break;
        case 2: t[i] = -inf; break;
        default: t[i] = i ? t[i - 1] : 0.5f; break;
        }
    }
    return t;
}

TEST(ExactOps, EltwiseAndPoolOpsMatchOracleBitForBit)
{
    // H and W up to 40, odd ones included: a row holds several whole
    // quads of pool windows, a partial last one, or both, and a
    // trailing row or column no window reads.
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const int64_t n = pick(rng, 1, 3), c = pick(rng, 1, 4);
        const int64_t h = pick(rng, 1, 40), w = pick(rng, 1, 40);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ": (" << n
                                          << ", " << c << ", " << h << ", "
                                          << w << ")");
        const Tensor x = specialValues({n, c, h, w}, rng);
        const Tensor grad = specialValues({n, c, h, w}, rng);
        EXPECT_TRUE(sameBits(reluForward(x), oracle::reluForward(x)))
            << "reluForward";
        EXPECT_TRUE(
            sameBits(reluBackward(x, grad), oracle::reluBackward(x, grad)))
            << "reluBackward";

        std::vector<int32_t> argmax, want_argmax;
        const Tensor pooled = maxPool2x2Forward(x, argmax);
        EXPECT_TRUE(
            sameBits(pooled, oracle::maxPool2x2Forward(x, want_argmax)))
            << "maxPool2x2Forward";
        EXPECT_EQ(argmax, want_argmax) << "maxPool2x2Forward argmax";
        const Tensor pool_grad = specialValues(pooled.shape(), rng);
        EXPECT_TRUE(sameBits(maxPool2x2Backward(x.shape(), pool_grad, argmax),
                             oracle::maxPool2x2Backward(x, pool_grad,
                                                        want_argmax)))
            << "maxPool2x2Backward";

        const Tensor gap_grad = sparseNormal({n, c}, rng);
        EXPECT_TRUE(sameBits(globalAvgPoolForward(x),
                             oracle::globalAvgPoolForward(x)))
            << "globalAvgPoolForward";
        EXPECT_TRUE(sameBits(globalAvgPoolBackward(x.shape(), gap_grad),
                             oracle::globalAvgPoolBackward(x, gap_grad)))
            << "globalAvgPoolBackward";
        if (HasFailure())
            return;
    }
}

TEST(ExactOps, EltwiseSeedsCoverEveryLane)
{
    // Every pool body path runs, and the special values land where
    // the compare-and-select rule matters: a NaN first in its window,
    // a NaN after a number, and windows of equal values.
    bool whole = false, tail = false, odd = false;
    bool nan_first = false, nan_later = false, ties = false, inf = false;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const int64_t n = pick(rng, 1, 3), c = pick(rng, 1, 4);
        const int64_t h = pick(rng, 1, 40), w = pick(rng, 1, 40);
        const Tensor x = specialValues({n, c, h, w}, rng);
        whole |= w / 2 >= 8;
        tail |= w / 2 % 4 != 0;
        odd |= h % 2 == 1 && w % 2 == 1;
        for (int64_t plane = 0; plane < n * c; ++plane)
            for (int64_t y = 0; y + 1 < h; y += 2)
                for (int64_t ox = 0; ox + 1 < w; ox += 2) {
                    const float *p = x.data() + (plane * h + y) * w + ox;
                    const float e[4] = {p[0], p[1], p[w], p[w + 1]};
                    nan_first |= std::isnan(e[0]) && !std::isnan(e[1]);
                    nan_later |= !std::isnan(e[0]) && std::isnan(e[1]);
                    ties |= e[0] == e[1] && e[0] >= e[2] && e[0] >= e[3];
                    inf |= std::isinf(e[0]) || std::isinf(e[3]);
                }
    }
    EXPECT_TRUE(whole && tail && odd);
    EXPECT_TRUE(nan_first && nan_later && ties && inf);
}

TEST(ExactOps, ExactConvServesRepeatedCallsBitForBit)
{
    // One ExactConv per geometry, as Conv2dLayer keeps it: its frames
    // and gradient frames carry over between calls, and a second round
    // on other data and another batch must still match the oracle,
    // the bias summed beside the weight gradient included.
    for (uint64_t seed = 1; seed <= 80; ++seed) {
        const ConvCase c = drawConv(seed);
        SCOPED_TRACE(::testing::Message() << c);
        const ConvSpec &spec = c.spec;
        ExactConv op(spec, c.h, c.w);
        Rng rng(seed * 6151 + 5);
        for (int round = 0; round < 2; ++round) {
            const int64_t batch = round ? 4 - c.batch : c.batch;
            const Tensor input =
                sparseNormal({batch, spec.inChannels, c.h, c.w}, rng);
            Tensor weight({spec.outChannels, spec.inChannels / spec.groups,
                           spec.kernelH, spec.kernelW});
            weight.fillNormal(rng);
            Tensor bias({spec.outChannels});
            bias.fillNormal(rng);
            const Tensor grad_out = sparseNormal(
                {batch, spec.outChannels, spec.outH(c.h), spec.outW(c.w)},
                rng);
            EXPECT_TRUE(
                sameBits(op.forward(input, weight, bias),
                         oracle::conv2dForward(input, weight, bias, spec)))
                << "forward, round " << round;
            Tensor grad_b;
            EXPECT_TRUE(
                sameBits(op.backwardWeight(input, grad_out, &grad_b),
                         oracle::conv2dBackwardWeight(input, grad_out, spec)))
                << "backwardWeight, round " << round;
            EXPECT_TRUE(sameBits(grad_b, oracle::conv2dBackwardBias(grad_out)))
                << "bias, round " << round;
            EXPECT_TRUE(sameBits(
                op.backwardInput(grad_out, weight),
                oracle::conv2dBackwardInput(grad_out, weight, spec, c.h, c.w)))
                << "backwardInput, round " << round;
        }
        if (HasFailure())
            return;
    }
}

TEST(ExactOps, ConvFrameLoadWritesEveryCellOverADirtyBuffer)
{
    // The frame as its class comment lays it out, cell by cell: +0
    // everywhere, then input (y, x) at row y + pad, slot col(x + pad),
    // for the cells inside the frame. The load runs over NaN, so a
    // cell it skips shows. Pads up to 6 reach both the quad-border path
    // (stride 1, pad <= 4) and the per-slot one.
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed * 7919 + 3);
        ConvSpec spec;
        spec.kernelH = pick(rng, 1, 5);
        spec.kernelW = pick(rng, 1, 5);
        spec.stride = pick(rng, 1, 3);
        spec.pad = pick(rng, 0, 6);
        spec.inChannels = spec.outChannels = 1;
        const int64_t h = std::max(pick(rng, 1, 20),
                                   spec.kernelH - 2 * spec.pad);
        const int64_t w = std::max(pick(rng, 1, 20),
                                   spec.kernelW - 2 * spec.pad);
        const int64_t channels = pick(rng, 1, 3);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ": " << h << "x" << w << " k"
                     << spec.kernelH << "x" << spec.kernelW << " s"
                     << spec.stride << " p" << spec.pad << ", "
                     << channels << " channels");
        const ConvFrame frame(spec, h, w);
        const Tensor x = sparseNormal({channels, h, w}, rng);
        const int64_t row_len = frame.rowStep() / spec.stride;
        const int64_t span = row_len / spec.stride;
        const int64_t rows = frame.size() / row_len;
        std::vector<float> want(static_cast<size_t>(channels * frame.size()),
                                0.0f);
        for (int64_t c = 0; c < channels; ++c)
            for (int64_t y = 0; y + spec.pad < rows && y < h; ++y)
                for (int64_t px = spec.pad; px < row_len && px < w + spec.pad;
                     ++px) {
                    const int64_t slot =
                        px % spec.stride * span + px / spec.stride;
                    want[static_cast<size_t>(c * frame.size() +
                                             (y + spec.pad) * row_len +
                                             slot)] =
                        x[(c * h + y) * w + px - spec.pad];
                }
        std::vector<float> got(want.size(),
                               std::numeric_limits<float>::quiet_NaN());
        frame.load(x.data(), channels, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(float)));
    }
}

TEST(ExactOpsDeathTest, ReluBackwardPanicsOnAGradientOfAnotherShape)
{
    const Tensor x({1, 1, 2, 2});
    const Tensor grad({1, 1, 4, 4});
    EXPECT_DEATH(reluBackward(x, grad),
                 "grad \\(1, 1, 4, 4\\) != input \\(1, 1, 2, 2\\)");
}

TEST(ExactOpsDeathTest, GlobalAvgPoolBackwardPanicsOnAShortGradient)
{
    GlobalAvgPoolLayer gap;
    gap.forward(Tensor({2, 3, 4, 4}), nullptr);
    EXPECT_DEATH(gap.backward(Tensor({2, 2})),
                 "gradOut \\(2, 2\\) != \\(2, 3\\)");
}

TEST(ExactOpsDeathTest, MaxPoolBackwardPanicsOnAGradientOfAnotherShape)
{
    MaxPoolLayer pool;
    pool.forward(Tensor({1, 1, 4, 4}), nullptr);
    EXPECT_DEATH(pool.backward(Tensor({1, 1, 4, 4})),
                 "gradOut \\(1, 1, 4, 4\\) != \\(1, 1, 2, 2\\)");
}

TEST(ExactOpsDeathTest, MaxPoolBackwardPanicsOnAStrayArgmax)
{
    const std::vector<int64_t> shape = {1, 1, 4, 4};
    const Tensor grad({1, 1, 2, 2});
    // Window (0, 1) covers offsets 2, 3, 6 and 7; offset 4 is (1, 0)'s.
    const std::vector<int32_t> stray = {0, 4, 8, 10};
    EXPECT_DEATH(maxPool2x2Backward(shape, grad, stray),
                 "argmax offset lies outside its window");
    const std::vector<int32_t> short_argmax = {0, 2, 8};
    EXPECT_DEATH(maxPool2x2Backward(shape, grad, short_argmax),
                 "3 argmax offsets for 4 outputs");
}

TEST(ExactOps, MaxPoolOutputsAWindowValueAndPointsInsideIt)
{
    // Windows of -inf, -FLT_MAX and NaN beside ordinary ones. Every
    // output must be one of its window's four values, bit for bit,
    // its argmax one of the window's four elements, and the backward
    // must route each window's gradient into that window.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(99);
    Tensor x({2, 3, 4, 6});
    x.fillNormal(rng);
    const int64_t h = 4, w = 6, oh = 2, ow = 3;
    const auto offset = [&](int64_t plane, int64_t y, int64_t ox,
                            int64_t e) {
        return (plane * h + 2 * y + e / 2) * w + 2 * ox + e % 2;
    };
    int64_t idx = 0;
    for (int64_t plane = 0; plane < 6; ++plane)
        for (int64_t y = 0; y < oh; ++y)
            for (int64_t ox = 0; ox < ow; ++ox, ++idx)
                for (int64_t e = 0; e < 4; ++e) {
                    float &v = x[offset(plane, y, ox, e)];
                    switch (idx % 6) {
                    case 1: v = -inf; break;
                    case 2: v = -FLT_MAX; break;
                    case 3: v = nan; break;
                    case 4: if (e == 0) v = nan; break; // NaN first
                    case 5: if (e < 3) v = -inf; break; // one finite
                    default: break;                     // ordinary
                    }
                }
    std::vector<int32_t> argmax;
    const Tensor out = maxPool2x2Forward(x, argmax);
    Tensor ones(out.shape());
    ones.fill(1.0f);
    const Tensor grad = maxPool2x2Backward(x.shape(), ones, argmax);
    idx = 0;
    for (int64_t plane = 0; plane < 6; ++plane)
        for (int64_t y = 0; y < oh; ++y)
            for (int64_t ox = 0; ox < ow; ++ox, ++idx) {
                SCOPED_TRACE(::testing::Message()
                             << "plane " << plane << " window (" << y << ", "
                             << ox << "), pattern " << idx % 6);
                bool value_inside = false, argmax_inside = false;
                float routed = 0.0f;
                for (int64_t e = 0; e < 4; ++e) {
                    const int64_t off = offset(plane, y, ox, e);
                    value_inside |=
                        std::memcmp(out.data() + idx, x.data() + off,
                                    sizeof(float)) == 0;
                    argmax_inside |= argmax[static_cast<size_t>(idx)] == off;
                    routed += grad[off];
                }
                EXPECT_TRUE(value_inside) << "output " << out[idx];
                EXPECT_TRUE(argmax_inside)
                    << "argmax " << argmax[static_cast<size_t>(idx)];
                EXPECT_EQ(routed, 1.0f);
            }
}

} // namespace
} // namespace mercury
