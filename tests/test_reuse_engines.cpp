/**
 * @file
 * Tests for the functional reuse engines: exactness when nothing is
 * similar, bounded approximation when vectors are similar, MAC
 * accounting, and the FC forwarding / attention row-copy patterns.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

/** Input whose channel planes are built from few prototype patches. */
Tensor
similarInput(int64_t n, int64_t c, int64_t h, int64_t w, float eps,
             uint64_t seed)
{
    Rng rng(seed);
    Tensor t({n, c, h, w});
    // Low-frequency content: neighbouring windows look alike, the
    // regime MERCURY exploits.
    for (int64_t b = 0; b < n; ++b)
        for (int64_t ch = 0; ch < c; ++ch) {
            const float base = static_cast<float>(rng.normal());
            for (int64_t y = 0; y < h; ++y)
                for (int64_t x = 0; x < w; ++x)
                    t.at4(b, ch, y, x) =
                        base + eps * static_cast<float>(rng.normal());
        }
    return t;
}

TEST(ConvReuse, ExactWhenNothingSimilar)
{
    Rng rng(61);
    Tensor in({1, 2, 6, 6});
    in.fillNormal(rng); // white noise: no similarity
    Tensor w({4, 2, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, 32, 7);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, Tensor(), spec, stats);
    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    // With long signatures on white noise, hits are rare; when none
    // occur, the result is bit-exact.
    if (stats.mix.hit == 0)
        EXPECT_LT(out.maxAbsDiff(ref), 1e-5f);
    else
        EXPECT_LT(out.maxAbsDiff(ref), 0.5f);
}

TEST(ConvReuse, SimilarInputsSkipManyMacs)
{
    Tensor in = similarInput(1, 4, 12, 12, 1e-4f, 62);
    Rng rng(63);
    Tensor w({8, 4, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 4;
    spec.outChannels = 8;
    spec.kernelH = spec.kernelW = 3;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, 20, 8);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, Tensor(), spec, stats);
    EXPECT_GT(stats.skipFraction(), 0.5);
    // Near-identical windows mean reuse changes results negligibly.
    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    EXPECT_LT(out.maxAbsDiff(ref), 0.05f);
}

TEST(ConvReuse, ApproximationBoundedByVectorSpread)
{
    Tensor in = similarInput(1, 2, 10, 10, 0.01f, 64);
    Rng rng(65);
    Tensor w({4, 2, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, 16, 9);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, Tensor(), spec, stats);
    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    // Error per output <= ||eps||*||w||; generous envelope here.
    EXPECT_LT(out.maxAbsDiff(ref), 0.5f);
}

TEST(ConvReuse, StatsAccounting)
{
    Tensor in = similarInput(2, 3, 8, 8, 1e-4f, 66);
    Rng rng(67);
    Tensor w({4, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, 20, 10);
    ReuseStats stats;
    engine.forward(in, w, Tensor(), spec, stats);
    // 2 images x 3 channels = 6 detection passes of 36 vectors.
    EXPECT_EQ(stats.channelPasses, 6);
    EXPECT_EQ(stats.mix.vectors, 6 * 36);
    EXPECT_EQ(stats.macsTotal, 6ull * 36 * 4 * 9);
    EXPECT_LE(stats.macsSkipped, stats.macsTotal);
    EXPECT_TRUE(stats.mix.consistent());
}

TEST(ConvReuse, BiasAppliedOncePerOutput)
{
    Tensor in({1, 1, 4, 4});
    in.fill(1.0f);
    Tensor w({2, 1, 3, 3});
    w.fill(1.0f);
    Tensor bias({2}, {5.0f, -1.0f});
    ConvSpec spec;
    spec.inChannels = 1;
    spec.outChannels = 2;
    spec.kernelH = spec.kernelW = 3;

    MCache cache(16, 4, 2);
    ConvReuseEngine engine(cache, 8, 11);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, bias, spec, stats);
    Tensor ref = conv2dForward(in, w, bias, spec);
    EXPECT_LT(out.maxAbsDiff(ref), 1e-4f);
}

TEST(ConvReuse, BiasOfAnotherSizeDies)
{
    // The forward writes bias[oc] for every filter: a bias of another
    // size must die as the exact op does, not read past its end.
    Tensor in({1, 1, 6, 6});
    Tensor w({4, 1, 3, 3});
    ConvSpec spec;
    spec.inChannels = 1;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    MCache cache(16, 4, 2);
    ConvReuseEngine engine(cache, 8, 11);
    ReuseStats stats;
    for (const int64_t elems : {1, 3, 5}) {
        const Tensor bias({elems});
        EXPECT_DEATH(engine.forward(in, w, bias, spec, stats),
                     "bias has " + std::to_string(elems) +
                         " elements for 4 filters");
    }
}

TEST(ConvReuse, GroupedConvMatchesReference)
{
    Tensor in = similarInput(1, 4, 8, 8, 1e-4f, 68);
    Rng rng(69);
    Tensor w({4, 2, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 4;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.groups = 2;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, 20, 12);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, Tensor(), spec, stats);
    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    EXPECT_LT(out.maxAbsDiff(ref), 0.05f);
}

TEST(ConvReuse, StridedAndPaddedMatchesReference)
{
    Tensor in = similarInput(1, 2, 9, 9, 1e-4f, 70);
    Rng rng(71);
    Tensor w({3, 2, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 2;
    spec.outChannels = 3;
    spec.kernelH = spec.kernelW = 3;
    spec.stride = 2;
    spec.pad = 1;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, 20, 13);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, Tensor(), spec, stats);
    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    EXPECT_EQ(out.shape(), ref.shape());
    EXPECT_LT(out.maxAbsDiff(ref), 0.05f);
}

/** Geometry sweep: (kernel, stride, pad, groups, sig_bits). */
class ConvReuseSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int>>
{
};

TEST_P(ConvReuseSweep, MatchesExactConvWithinReuseTolerance)
{
    const auto [k, stride, pad, groups, bits] = GetParam();
    const int64_t cin = 4, cout = 8, hw = 11;
    // Smooth (not constant) fields: constant channels make padded
    // border windows alias with interior ones under sign
    // quantization, a degenerate regime the paper's 20-bit starting
    // length exists to avoid.
    Dataset ds = makeImageDataset(1, 3, cin, hw, 80 + k, 0.002f);
    Tensor in = ds.inputs;
    Rng rng(81);
    Tensor w({cout, cin / groups, k, k});
    w.fillNormal(rng, 0.0f, 0.4f);
    ConvSpec spec;
    spec.inChannels = cin;
    spec.outChannels = cout;
    spec.kernelH = spec.kernelW = k;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = groups;

    MCache cache(64, 16, 4);
    ConvReuseEngine engine(cache, bits, 82);
    ReuseStats stats;
    Tensor out = engine.forward(in, w, Tensor(), spec, stats);
    Tensor ref = conv2dForward(in, w, Tensor(), spec);
    ASSERT_EQ(out.shape(), ref.shape());
    // RPQ matches vectors by angle, so the reuse error is relative
    // to the operand magnitudes: bound the Frobenius-relative error
    // at every geometry; accounting is always consistent.
    double err = 0.0, ref_norm = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
        const double d = out[i] - ref[i];
        err += d * d;
        ref_norm += static_cast<double>(ref[i]) * ref[i];
    }
    // Short signatures reuse aggressively (larger perturbation);
    // longer signatures only merge near-identical windows.
    const double tol = bits >= 40 ? 0.25 : bits >= 24 ? 0.3 : 0.45;
    EXPECT_LT(std::sqrt(err / std::max(ref_norm, 1e-12)), tol)
        << "k=" << k << " stride=" << stride << " pad=" << pad
        << " groups=" << groups << " bits=" << bits;
    EXPECT_TRUE(stats.mix.consistent());
    EXPECT_LE(stats.macsSkipped, stats.macsTotal);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvReuseSweep,
    ::testing::Values(std::make_tuple(3, 1, 1, 1, 20),
                      std::make_tuple(3, 2, 1, 1, 20),
                      std::make_tuple(3, 1, 0, 1, 20),
                      std::make_tuple(5, 1, 2, 1, 20),
                      std::make_tuple(5, 2, 2, 1, 32),
                      std::make_tuple(3, 1, 1, 2, 20),
                      std::make_tuple(3, 1, 1, 4, 20),
                      std::make_tuple(7, 1, 3, 1, 24),
                      std::make_tuple(3, 1, 1, 1, 28),
                      std::make_tuple(3, 1, 1, 1, 48)));

TEST(FcReuse, DuplicateRowsForwardResults)
{
    Tensor x({4, 8});
    Rng rng(72);
    // Rows 0 and 2 identical; rows 1 and 3 identical.
    for (int64_t j = 0; j < 8; ++j) {
        const float a = static_cast<float>(rng.normal());
        const float b = static_cast<float>(rng.normal());
        x.at2(0, j) = a;
        x.at2(2, j) = a;
        x.at2(1, j) = b;
        x.at2(3, j) = b;
    }
    Tensor w({8, 5});
    w.fillNormal(rng);

    MCache cache(16, 4, 1);
    FcEngine engine(cache, 24, 14);
    ReuseStats stats;
    std::vector<int64_t> owners;
    Tensor out = engine.forward(x, w, stats, &owners);

    EXPECT_EQ(owners[0], 0);
    EXPECT_EQ(owners[2], 0);
    EXPECT_EQ(owners[1], 1);
    EXPECT_EQ(owners[3], 1);
    // Forwarded rows match exactly.
    for (int64_t j = 0; j < 5; ++j) {
        EXPECT_FLOAT_EQ(out.at2(2, j), out.at2(0, j));
        EXPECT_FLOAT_EQ(out.at2(3, j), out.at2(1, j));
    }
    EXPECT_EQ(stats.mix.hit, 2);
    EXPECT_EQ(stats.macsSkipped, 2ull * 8 * 5);
}

TEST(FcReuse, ExactOnDissimilarRows)
{
    Rng rng(73);
    Tensor x({6, 16});
    x.fillNormal(rng);
    Tensor w({16, 4});
    w.fillNormal(rng);
    MCache cache(64, 16, 1);
    FcEngine engine(cache, 32, 15);
    ReuseStats stats;
    Tensor out = engine.forward(x, w, stats);
    Tensor ref = matmul(x, w);
    if (stats.mix.hit == 0) {
        EXPECT_LT(out.maxAbsDiff(ref), 1e-4f);
    }
}

TEST(FcReuse, ShapeMismatchDies)
{
    MCache cache(16, 4, 1);
    FcEngine engine(cache, 16, 16);
    ReuseStats stats;
    Tensor x({2, 8}), w({7, 3});
    EXPECT_DEATH(engine.forward(x, w, stats), "mismatch");
}

TEST(Attention, MatchesExactWhenNoSimilarity)
{
    Rng rng(74);
    Tensor x({6, 8});
    x.fillNormal(rng);
    MCache cache(64, 16, 1);
    AttentionEngine engine(cache, 32, 17);
    ReuseStats stats;
    Tensor y = engine.forward(x, stats);

    // Reference: Y = (X Xt) X.
    Tensor w = matmulTransposeB(x, x);
    Tensor ref = matmul(w, x);
    if (stats.mix.hit == 0) {
        EXPECT_LT(y.maxAbsDiff(ref), 1e-3f);
    }
}

TEST(Attention, SimilarRowsCopied)
{
    Rng rng(75);
    Tensor x({6, 8});
    x.fillNormal(rng);
    // Make row 4 a copy of row 1.
    for (int64_t j = 0; j < 8; ++j)
        x.at2(4, j) = x.at2(1, j);
    MCache cache(64, 16, 1);
    AttentionEngine engine(cache, 24, 18);
    ReuseStats stats;
    Tensor y = engine.forward(x, stats);
    EXPECT_GE(stats.mix.hit, 1);
    for (int64_t j = 0; j < 8; ++j)
        EXPECT_FLOAT_EQ(y.at2(4, j), y.at2(1, j));
}

TEST(Attention, MacAccounting)
{
    Rng rng(76);
    Tensor x({5, 7});
    x.fillNormal(rng);
    MCache cache(64, 16, 1);
    AttentionEngine engine(cache, 24, 19);
    ReuseStats stats;
    engine.forward(x, stats);
    EXPECT_EQ(stats.macsTotal, 2ull * 5 * 5 * 7);
}

} // namespace
} // namespace mercury
