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
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "naive_ops.hpp"
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

TEST(ExactOps, EltwiseAndPoolOpsMatchOracleBitForBit)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const int64_t n = pick(rng, 1, 3), c = pick(rng, 1, 4);
        const int64_t h = pick(rng, 1, 9), w = pick(rng, 1, 9);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ": (" << n
                                          << ", " << c << ", " << h << ", "
                                          << w << ")");
        const Tensor x = sparseNormal({n, c, h, w}, rng);
        const Tensor grad = sparseNormal({n, c, h, w}, rng);
        EXPECT_TRUE(sameBits(reluForward(x), oracle::reluForward(x)))
            << "reluForward";
        EXPECT_TRUE(
            sameBits(reluBackward(x, grad), oracle::reluBackward(x, grad)))
            << "reluBackward";

        std::vector<int32_t> argmax, want_argmax;
        EXPECT_TRUE(sameBits(maxPool2x2Forward(x, argmax),
                             oracle::maxPool2x2Forward(x, want_argmax)))
            << "maxPool2x2Forward";
        EXPECT_EQ(argmax, want_argmax) << "maxPool2x2Forward argmax";

        const Tensor gap_grad = sparseNormal({n, c}, rng);
        EXPECT_TRUE(sameBits(globalAvgPoolForward(x),
                             oracle::globalAvgPoolForward(x)))
            << "globalAvgPoolForward";
        EXPECT_TRUE(sameBits(globalAvgPoolBackward(x, gap_grad),
                             oracle::globalAvgPoolBackward(x, gap_grad)))
            << "globalAvgPoolBackward";
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace mercury
