/**
 * @file
 * Pins the three reuse engines to the reference arithmetic of
 * tests/reuse_oracle.hpp at nonzero hit rates: every output of every
 * pass (conv forward / dX / dW, FC forward / dX / dW, attention
 * forward / dX / projection) must equal the oracle's bit for bit, and
 * every ReuseStats total must match.
 *
 * Conv geometries are drawn from a fixed seed list: square kernel 1, 3
 * or 5, stride 1–2, pad 0–1, groups 1, 2 or depthwise, batch 1–3, H
 * and W in [3, 13]. Inputs repeat a few patterns per channel plane, so
 * detection finds HITs with several owners per pass, and a small MCACHE
 * adds MNU rows. FC and attention shapes are seeded the same way. Each
 * case runs twice: serially, and at 4 threads with overlap On and small
 * blocks, so the pooled schedule streams. A mismatch prints the seed
 * and the shape. Runs under TSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "pipeline/detection_frontend.hpp"
#include "reuse_oracle.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

constexpr int kSets = 16;
constexpr int kWays = 4;
constexpr int kVersions = 2;
constexpr int kMaxBits = 32;
constexpr int kBits = 16;

/** The serial schedule, or 4 threads with every pass on the pool. */
PipelineConfig
pipeFor(bool pooled)
{
    PipelineConfig pipe;
    if (pooled) {
        pipe.threads = 4;
        pipe.overlap = OverlapMode::On;
        pipe.blockRows = 16;
    }
    return pipe;
}

const char *
scheduleName(bool pooled)
{
    return pooled ? "4 threads, overlap on" : "serial";
}

/** Bit equality of shape and every float, with the first mismatch. */
::testing::AssertionResult
sameBits(const Tensor &got, const Tensor &want)
{
    if (got.shape() != want.shape())
        return ::testing::AssertionFailure()
               << "shape " << got.shapeStr() << " != " << want.shapeStr();
    for (int64_t i = 0; i < got.numel(); ++i) {
        if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)))
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << got[i] << " != oracle "
                   << want[i];
    }
    return ::testing::AssertionSuccess();
}

void
expectStatsEqual(const ReuseStats &a, const ReuseStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.mix.vectors, b.mix.vectors) << what;
    EXPECT_EQ(a.mix.hit, b.mix.hit) << what;
    EXPECT_EQ(a.mix.mau, b.mix.mau) << what;
    EXPECT_EQ(a.mix.mnu, b.mix.mnu) << what;
    EXPECT_EQ(a.macsTotal, b.macsTotal) << what;
    EXPECT_EQ(a.macsSkipped, b.macsSkipped) << what;
    EXPECT_EQ(a.channelPasses, b.channelPasses) << what;
}

// ---------------------------------------------------------------------
// Conv
// ---------------------------------------------------------------------

constexpr int64_t kConvIn = 4; // divisible by 2; depthwise = 4 groups

struct ConvGeometry
{
    uint64_t seed = 0;
    int64_t batch = 1, h = 3, w = 3, k = 1, stride = 1, pad = 0;
    int64_t groups = 1, cout = 4;
    float noise = 0.0f;
};

std::ostream &
operator<<(std::ostream &os, const ConvGeometry &g)
{
    return os << "seed " << g.seed << ": batch " << g.batch << ", " << g.h
              << "x" << g.w << ", k" << g.k << " s" << g.stride << " p"
              << g.pad << " groups " << g.groups << ", " << kConvIn
              << "->" << g.cout << ", noise " << g.noise;
}

ConvGeometry
drawConv(uint64_t seed)
{
    Rng rng(seed);
    ConvGeometry g;
    g.seed = seed;
    g.batch = 1 + static_cast<int64_t>(rng.uniformInt(3));
    const int64_t kernels[] = {1, 3, 5};
    g.k = kernels[rng.uniformInt(3)];
    g.stride = 1 + static_cast<int64_t>(rng.uniformInt(2));
    g.pad = static_cast<int64_t>(rng.uniformInt(2));
    // Every drawn plane holds at least one output position.
    const int64_t min_hw = std::max<int64_t>(3, g.k - 2 * g.pad);
    g.h = min_hw + static_cast<int64_t>(rng.uniformInt(
                       static_cast<uint64_t>(14 - min_hw)));
    g.w = min_hw + static_cast<int64_t>(rng.uniformInt(
                       static_cast<uint64_t>(14 - min_hw)));
    const int64_t groups[] = {1, 2, kConvIn};
    g.groups = groups[rng.uniformInt(3)];
    g.cout = rng.uniformInt(2) ? 8 : 4;
    const float noise[] = {0.0f, 0.01f, 0.3f};
    g.noise = noise[rng.uniformInt(3)];
    return g;
}

const std::vector<uint64_t> &
convSeeds()
{
    static const std::vector<uint64_t> kSeeds = [] {
        std::vector<uint64_t> s;
        for (uint64_t i = 1; i <= 120; ++i)
            s.push_back(i);
        return s;
    }();
    return kSeeds;
}

ConvSpec
specOf(const ConvGeometry &g)
{
    ConvSpec spec;
    spec.inChannels = kConvIn;
    spec.outChannels = g.cout;
    spec.kernelH = spec.kernelW = g.k;
    spec.stride = g.stride;
    spec.pad = g.pad;
    spec.groups = g.groups;
    return spec;
}

/**
 * Channel planes that repeat a 2x3 tile of per-channel values plus
 * noise: patches come in a handful of patterns, so each pass has
 * several owners with HITs behind them.
 */
Tensor
tiledInput(const ConvGeometry &g)
{
    Rng rng(g.seed * 7919 + 3);
    Tensor t({g.batch, kConvIn, g.h, g.w});
    for (int64_t c = 0; c < kConvIn; ++c) {
        float tile[6];
        for (float &v : tile)
            v = static_cast<float>(rng.normal());
        for (int64_t b = 0; b < g.batch; ++b)
            for (int64_t y = 0; y < g.h; ++y)
                for (int64_t x = 0; x < g.w; ++x)
                    t.at4(b, c, y, x) =
                        tile[(y % 2) * 3 + x % 3] +
                        g.noise * static_cast<float>(rng.normal());
    }
    return t;
}

TEST(ReuseOracle, ConvEnginesMatchOracleOnSeededGeometries)
{
    int64_t cases_with_hits = 0;
    for (const uint64_t seed : convSeeds()) {
        const ConvGeometry g = drawConv(seed);
        SCOPED_TRACE(::testing::Message() << g);
        const ConvSpec spec = specOf(g);
        Rng rng(seed * 31 + 7);
        const Tensor input = tiledInput(g);
        Tensor weight({g.cout, kConvIn / g.groups, g.k, g.k});
        weight.fillNormal(rng);
        Tensor bias({g.cout});
        bias.fillNormal(rng);
        Tensor grad_out({g.batch, g.cout, spec.outH(g.h), spec.outW(g.w)});
        grad_out.fillNormal(rng);

        for (const bool pooled : {false, true}) {
            SCOPED_TRACE(scheduleName(pooled));
            DetectionFrontend fe(kSets, kWays, kVersions, kMaxBits,
                                 seed + 11, pipeFor(pooled));
            ConvReuseEngine eng(fe, kBits);
            SignatureRecord record;
            ReuseStats fwd, dx, dw;
            const Tensor out =
                eng.forward(input, weight, bias, spec, fwd, &record);
            const Tensor gin = eng.backwardInput(grad_out, weight, spec,
                                                 g.h, g.w, record, dx);
            const Tensor gw =
                eng.backwardWeights(input, grad_out, spec, record, dw);

            ReuseStats o_fwd, o_dx, o_dw;
            EXPECT_TRUE(sameBits(out, reuse_oracle::convForward(
                                          input, weight, bias, spec,
                                          record, o_fwd)))
                << "forward";
            EXPECT_TRUE(sameBits(gin, reuse_oracle::convBackwardInput(
                                          grad_out, weight, spec, g.h, g.w,
                                          record, o_dx)))
                << "dX";
            EXPECT_TRUE(sameBits(gw, reuse_oracle::convBackwardWeights(
                                         input, grad_out, spec, record,
                                         o_dw)))
                << "dW";
            expectStatsEqual(fwd, o_fwd, "forward stats");
            expectStatsEqual(dx, o_dx, "dX stats");
            expectStatsEqual(dw, o_dw, "dW stats");
            if (!pooled && fwd.macsSkipped > 0)
                ++cases_with_hits;
        }
    }
    // The comparison must cover the forwarding paths, not only the
    // computed rows.
    EXPECT_GE(cases_with_hits * 10,
              static_cast<int64_t>(convSeeds().size()) * 8);
}

TEST(ReuseOracle, ConvSeedsCoverEveryVariant)
{
    bool k1 = false, k3 = false, k5 = false, s2 = false, pad0 = false,
         pad1 = false, dense = false, grouped = false, depthwise = false,
         multi_batch = false, small = false, large = false;
    for (const uint64_t seed : convSeeds()) {
        const ConvGeometry g = drawConv(seed);
        k1 |= g.k == 1;
        k3 |= g.k == 3;
        k5 |= g.k == 5;
        s2 |= g.stride == 2;
        pad0 |= g.pad == 0;
        pad1 |= g.pad == 1;
        dense |= g.groups == 1;
        grouped |= g.groups == 2;
        depthwise |= g.groups == kConvIn;
        multi_batch |= g.batch == 3;
        small |= std::min(g.h, g.w) == 3;
        large |= std::max(g.h, g.w) == 13;
    }
    EXPECT_TRUE(k1 && k3 && k5);
    EXPECT_TRUE(s2 && pad0 && pad1);
    EXPECT_TRUE(dense && grouped && depthwise);
    EXPECT_TRUE(multi_batch && small && large);
}

// ---------------------------------------------------------------------
// FC and attention
// ---------------------------------------------------------------------

/**
 * (n, d) rows drawn from `uniques` prototypes plus noise; with
 * `relu`, negative entries clamp to zero (the weight gradient's zero
 * skip).
 */
Tensor
prototypeRows(int64_t n, int64_t d, int64_t uniques, float noise,
              bool relu, Rng &rng)
{
    Tensor proto({uniques, d});
    proto.fillNormal(rng);
    Tensor rows({n, d});
    for (int64_t i = 0; i < n; ++i) {
        const int64_t p = static_cast<int64_t>(
            rng.uniformInt(static_cast<uint64_t>(uniques)));
        for (int64_t j = 0; j < d; ++j) {
            const float v = proto.at2(p, j) +
                            noise * static_cast<float>(rng.normal());
            rows.at2(i, j) = relu ? std::max(0.0f, v) : v;
        }
    }
    return rows;
}

TEST(ReuseOracle, FcEngineMatchesOracle)
{
    int64_t hits = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed * 977);
        const int64_t n = 8 + static_cast<int64_t>(rng.uniformInt(120));
        const int64_t d = 4 + static_cast<int64_t>(rng.uniformInt(28));
        const int64_t m = 3 + static_cast<int64_t>(rng.uniformInt(14));
        const int64_t uniques =
            1 + static_cast<int64_t>(rng.uniformInt(12));
        const Tensor input =
            prototypeRows(n, d, uniques, seed % 3 ? 0.001f : 0.2f,
                          seed % 2 == 0, rng);
        Tensor weight({d, m});
        weight.fillNormal(rng);
        Tensor grad({n, m});
        grad.fillNormal(rng);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ": " << n << "x" << d << " -> "
                     << m << ", " << uniques << " prototypes");

        for (const bool pooled : {false, true}) {
            SCOPED_TRACE(scheduleName(pooled));
            DetectionFrontend fe(kSets, kWays, kVersions, kMaxBits,
                                 seed + 5, pipeFor(pooled));
            FcEngine eng(fe, kBits);
            SignatureRecord record;
            ReuseStats fwd, dx, dw, o_fwd, o_dx, o_dw;
            const Tensor out =
                eng.forward(input, weight, fwd, nullptr, &record);
            const Tensor gin = eng.backwardInput(grad, weight, record, dx);
            const Tensor gw = eng.backwardWeights(input, grad, record, dw);
            EXPECT_TRUE(sameBits(out, reuse_oracle::fcForward(
                                          input, weight, record, o_fwd)))
                << "forward";
            EXPECT_TRUE(sameBits(gin, reuse_oracle::fcBackwardInput(
                                          grad, weight, record, o_dx)))
                << "dX";
            EXPECT_TRUE(sameBits(gw, reuse_oracle::fcBackwardWeights(
                                         input, grad, record, o_dw)))
                << "dW";
            expectStatsEqual(fwd, o_fwd, "forward stats");
            expectStatsEqual(dx, o_dx, "dX stats");
            expectStatsEqual(dw, o_dw, "dW stats");
            hits += fwd.mix.hit;
        }
    }
    EXPECT_GT(hits, 0);
}

TEST(ReuseOracle, PersistentFcHitsWithoutAnOwnerCompute)
{
    // A persistent cache keeps the first call's tags, so the second
    // call HITs entries no row of its own pass installed: those rows
    // own themselves and compute. The second call draws from eight
    // prototypes, the first four of which the first call saw, so its
    // pass also installs entries and forwards within itself.
    Rng first_rng(4242), second_rng(4242);
    const Tensor first = prototypeRows(48, 10, 4, 0.001f, false, first_rng);
    const Tensor second =
        prototypeRows(48, 10, 8, 0.001f, false, second_rng);
    Rng rng(4243);
    Tensor weight({10, 6});
    weight.fillNormal(rng);
    Tensor grad({48, 6});
    grad.fillNormal(rng);
    for (const bool pooled : {false, true}) {
        SCOPED_TRACE(scheduleName(pooled));
        PipelineConfig pipe = pipeFor(pooled);
        pipe.persistent = true;
        DetectionFrontend fe(kSets, kWays, kVersions, kMaxBits, 9, pipe);
        FcEngine eng(fe, kBits);
        SignatureRecord record;
        ReuseStats fwd, dx, dw, o_fwd, o_dx, o_dw;
        eng.forward(first, weight, fwd, nullptr, &record);
        const Tensor out = eng.forward(second, weight, fwd, nullptr,
                                       &record);
        ASSERT_GT(fwd.mix.hit, 0);
        const Tensor gin = eng.backwardInput(grad, weight, record, dx);
        const Tensor gw = eng.backwardWeights(second, grad, record, dw);
        EXPECT_TRUE(sameBits(out, reuse_oracle::fcForward(second, weight,
                                                          record, o_fwd)));
        EXPECT_TRUE(sameBits(gin, reuse_oracle::fcBackwardInput(
                                      grad, weight, record, o_dx)));
        EXPECT_TRUE(sameBits(gw, reuse_oracle::fcBackwardWeights(
                                     second, grad, record, o_dw)));
        expectStatsEqual(fwd, o_fwd, "forward stats");
        expectStatsEqual(dx, o_dx, "dX stats");
        expectStatsEqual(dw, o_dw, "dW stats");
        // Some HITs found no owner in their own pass, some did.
        EXPECT_GT(fwd.macsSkipped, 0u);
        EXPECT_LT(fwd.macsSkipped, static_cast<uint64_t>(fwd.mix.hit) *
                                       10u * 6u);
    }
}

TEST(ReuseOracle, AttentionEngineMatchesOracle)
{
    int64_t hits = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 613);
        const int64_t samples = 1 + static_cast<int64_t>(rng.uniformInt(3));
        const int64_t t = 8 + static_cast<int64_t>(rng.uniformInt(48));
        const int64_t d = 4 + static_cast<int64_t>(rng.uniformInt(12));
        const int64_t uniques = 1 + static_cast<int64_t>(rng.uniformInt(8));
        std::vector<Tensor> xs, gs;
        for (int64_t s = 0; s < samples; ++s) {
            xs.push_back(prototypeRows(t, d, uniques, 0.001f, false, rng));
            Tensor g({t, d});
            g.fillNormal(rng);
            gs.push_back(g);
        }
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ": " << samples << " samples of "
                     << t << "x" << d << ", " << uniques << " prototypes");

        for (const bool pooled : {false, true}) {
            SCOPED_TRACE(scheduleName(pooled));
            DetectionFrontend fe(kSets, kWays, kVersions, kMaxBits,
                                 seed + 3, pipeFor(pooled));
            AttentionEngine eng(fe, kBits);
            SignatureRecord record;
            for (int64_t s = 0; s < samples; ++s) {
                SCOPED_TRACE(::testing::Message() << "sample " << s);
                const Tensor &x = xs[static_cast<size_t>(s)];
                const Tensor &g = gs[static_cast<size_t>(s)];
                ReuseStats fwd, dx, proj, o_fwd, o_dx, o_proj;
                const Tensor y = eng.forward(x, fwd, &record);
                const Tensor gin = eng.backward(x, g, record, s, dx);
                const Tensor xtx = eng.backwardProjection(x, record, s, proj);
                EXPECT_TRUE(sameBits(y, reuse_oracle::attentionForward(
                                            x, record, s, o_fwd)))
                    << "forward";
                EXPECT_TRUE(sameBits(gin, reuse_oracle::attentionBackward(
                                              x, g, record, s, o_dx)))
                    << "dX";
                EXPECT_TRUE(sameBits(xtx, reuse_oracle::attentionProjection(
                                              x, record, s, o_proj)))
                    << "projection";
                expectStatsEqual(fwd, o_fwd, "forward stats");
                expectStatsEqual(dx, o_dx, "dX stats");
                expectStatsEqual(proj, o_proj, "projection stats");
                hits += fwd.mix.hit;
            }
        }
    }
    EXPECT_GT(hits, 0);
}

} // namespace
} // namespace mercury
