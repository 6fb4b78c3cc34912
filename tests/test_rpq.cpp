/**
 * @file
 * Tests for the RPQ engine: similarity preservation, the
 * convolution formulation equivalence (§III-B1: frame signatures equal
 * row signatures on im2col patches, bit for bit), determinism, and
 * signature-length behaviour (the paper's Fig. 3 insight that longer
 * signatures separate dissimilar vectors better).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>

#include "core/rpq.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

TEST(RPQ, DeterministicForSameSeed)
{
    RPQEngine a(9, 32, 77), b(9, 32, 77);
    std::vector<float> v(9);
    Rng rng(1);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    EXPECT_TRUE(a.signatureOf(v.data(), 32) == b.signatureOf(v.data(), 32));
}

TEST(RPQ, DifferentSeedsDiffer)
{
    RPQEngine a(9, 32, 1), b(9, 32, 2);
    std::vector<float> v(9, 1.0f);
    EXPECT_FALSE(a.signatureOf(v.data(), 32) ==
                 b.signatureOf(v.data(), 32));
}

TEST(RPQ, IdenticalVectorsShareSignature)
{
    RPQEngine rpq(16, 64, 5);
    Rng rng(2);
    std::vector<float> v(16);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    std::vector<float> w = v;
    EXPECT_TRUE(rpq.signatureOf(v.data(), 64) ==
                rpq.signatureOf(w.data(), 64));
}

TEST(RPQ, SimilarVectorsUsuallyShareSignature)
{
    // Vectors with tiny epsilon perturbations should mostly collide.
    RPQEngine rpq(10, 20, 6);
    Rng rng(3);
    int same = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        std::vector<float> v(10), w(10);
        for (int i = 0; i < 10; ++i) {
            v[i] = static_cast<float>(rng.normal());
            w[i] = v[i] + 1e-4f * static_cast<float>(rng.normal());
        }
        same += rpq.signatureOf(v.data(), 20) ==
                rpq.signatureOf(w.data(), 20);
    }
    EXPECT_GT(same, trials * 0.9);
}

TEST(RPQ, DissimilarVectorsUsuallyDiffer)
{
    RPQEngine rpq(10, 20, 7);
    Rng rng(4);
    int same = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        std::vector<float> v(10), w(10);
        for (int i = 0; i < 10; ++i) {
            v[i] = static_cast<float>(rng.normal());
            w[i] = static_cast<float>(rng.normal());
        }
        same += rpq.signatureOf(v.data(), 20) ==
                rpq.signatureOf(w.data(), 20);
    }
    EXPECT_LT(same, 5);
}

TEST(RPQ, LongerSignaturesSeparateBetter)
{
    // The paper's Fig. 3 experiment: 10 unique vectors, 10 similar
    // copies each. Short signatures under-count unique vectors;
    // longer ones approach the true count.
    Rng rng(8);
    const int uniques = 10, copies = 10, dim = 10;
    std::vector<std::vector<float>> all;
    for (int u = 0; u < uniques; ++u) {
        std::vector<float> proto(dim);
        for (auto &x : proto)
            x = static_cast<float>(rng.normal());
        all.push_back(proto);
        for (int c = 0; c < copies; ++c) {
            std::vector<float> v = proto;
            for (auto &x : v)
                x += 0.01f * static_cast<float>(rng.normal());
            all.push_back(v);
        }
    }
    RPQEngine rpq(dim, 64, 9);
    auto count_unique = [&](int bits) {
        std::set<std::string> sigs;
        for (const auto &v : all)
            sigs.insert(rpq.signatureOf(v.data(), bits).str());
        return static_cast<int>(sigs.size());
    };
    const int u4 = count_unique(4);
    const int u32 = count_unique(32);
    EXPECT_LE(u4, u32);
    EXPECT_LE(u4, uniques + 4);  // short sigs merge distinct vectors
    EXPECT_NEAR(u32, uniques, 3); // long sigs recover the truth
}

TEST(RPQ, SignaturePrefixConsistency)
{
    // The adaptive controller grows signatures; bit n must not depend
    // on the requested length (incremental extension).
    RPQEngine rpq(9, 48, 10);
    Rng rng(5);
    std::vector<float> v(9);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    Signature s20 = rpq.signatureOf(v.data(), 20);
    Signature s48 = rpq.signatureOf(v.data(), 48);
    EXPECT_TRUE(s48.prefix(20) == s20);
}

TEST(RPQ, ConvolutionFormulationMatchesRowForm)
{
    // §III-B1: signature bits computed by sliding the reshaped random
    // filters over the image (the frame form) equal the row-wise RPQ
    // on im2col patches.
    Rng rng(11);
    Tensor image({7, 7});
    image.fillNormal(rng);
    const int64_t k = 3;
    RPQEngine rpq(k * k, 16, 12);

    // Row form: extract patches then hash.
    Tensor nchw({1, 1, 7, 7});
    for (int64_t i = 0; i < image.numel(); ++i)
        nchw[i] = image[i];
    ConvSpec spec;
    spec.kernelH = spec.kernelW = k;
    Tensor rows = im2col(nchw, spec);
    auto sigs = rpq.signaturesOf(rows, 16);

    // Convolution form: the image's frame convolved with the filters.
    const ConvFrame geometry(spec, 7, 7);
    std::vector<float> frame(static_cast<size_t>(geometry.size()));
    geometry.load(image.data(), 1, frame.data());
    const int64_t n = geometry.outH() * geometry.outW();
    ASSERT_EQ(n, static_cast<int64_t>(sigs.size()));
    std::vector<uint64_t> words(static_cast<size_t>(n));
    rpq.signatureWords(geometry, frame.data(), 0, n, 16, words.data());
    for (int b = 0; b < 16; ++b) {
        for (size_t i = 0; i < sigs.size(); ++i)
            EXPECT_EQ((words[i] >> b) & 1u, sigs[i].bit(b) ? 1u : 0u)
                << "vector " << i << " bit " << b;
    }
}

TEST(RPQ, FrameSignaturesMatchRowSignatures)
{
    // Seeded geometries: the frame words of any output range, starting
    // and ending mid output row, equal signatureWords on the plane's
    // im2col rows word for word.
    std::mt19937_64 rng(2024);
    int64_t cases = 0, mid_row = 0;
    for (int64_t k : {1, 3, 5}) {
        RPQEngine rpq(k * k, 100, 77 + static_cast<uint64_t>(k));
        for (int64_t stride = 1; stride <= 2; ++stride) {
            for (int64_t pad = 0; pad <= 2; ++pad) {
                for (int rep = 0; rep < 6; ++rep) {
                    const int64_t h = 1 + static_cast<int64_t>(rng() % 40);
                    const int64_t w = 1 + static_cast<int64_t>(rng() % 40);
                    if (h + 2 * pad < k || w + 2 * pad < k)
                        continue;
                    ConvSpec spec;
                    spec.kernelH = spec.kernelW = k;
                    spec.stride = stride;
                    spec.pad = pad;
                    Rng fill(rng());
                    Tensor plane({1, 1, h, w});
                    plane.fillNormal(fill);
                    // Some zero cells: their patches project to +-0.
                    for (int64_t i = 0; i < plane.numel(); i += 3)
                        plane[i] = 0.0f;
                    const Tensor rows = im2col(plane, spec);
                    const ConvFrame geometry(spec, h, w);
                    std::vector<float> frame(
                        static_cast<size_t>(geometry.size()));
                    geometry.load(plane.data(), 1, frame.data());
                    const int64_t n = rows.dim(0);
                    ASSERT_EQ(n, geometry.outH() * geometry.outW());
                    const int64_t ow = geometry.outW();
                    for (int bits : {1, 28, 32, 33, 64, 65, 100}) {
                        const int64_t wpr = Signature::wordsFor(bits);
                        const auto pick = [&rng](int64_t m) {
                            return static_cast<int64_t>(
                                rng() % static_cast<uint64_t>(m));
                        };
                        const int64_t r0 = pick(n);
                        const int64_t r1 = r0 + 1 + pick(n - r0);
                        std::vector<uint64_t> want(
                            static_cast<size_t>((r1 - r0) * wpr));
                        std::vector<uint64_t> got(want.size() + 2, ~0ull);
                        rpq.signatureWords(rows, r0, r1, bits, want.data());
                        rpq.signatureWords(geometry, frame.data(), r0, r1,
                                           bits, got.data());
                        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                                 want.size() *
                                                     sizeof(uint64_t)))
                            << "k=" << k << " stride=" << stride
                            << " pad=" << pad << " h=" << h << " w=" << w
                            << " bits=" << bits << " [" << r0 << ", " << r1
                            << ")";
                        EXPECT_EQ(got[want.size()], ~0ull)
                            << "wrote past the range";
                        ++cases;
                        mid_row += r0 % ow != 0 && r1 % ow != 0;
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 500);
    EXPECT_GT(mid_row, 100) << "too few ranges start and end mid row";
}

TEST(RPQ, RandomFilterReshapeRoundTrips)
{
    RPQEngine rpq(9, 8, 13);
    Tensor f = rpq.randomFilter2D(3, 3);
    std::vector<float> unit(9, 0.0f);
    for (int64_t i = 0; i < 9; ++i) {
        unit.assign(9, 0.0f);
        unit[static_cast<size_t>(i)] = 1.0f;
        EXPECT_FLOAT_EQ(rpq.project(unit.data(), 3), f[i]);
    }
}

TEST(RPQ, ProjectionIsLinear)
{
    RPQEngine rpq(6, 4, 14);
    Rng rng(6);
    std::vector<float> a(6), b(6), ab(6);
    for (int i = 0; i < 6; ++i) {
        a[static_cast<size_t>(i)] = static_cast<float>(rng.normal());
        b[static_cast<size_t>(i)] = static_cast<float>(rng.normal());
        ab[static_cast<size_t>(i)] = a[static_cast<size_t>(i)] +
                                     b[static_cast<size_t>(i)];
    }
    for (int n = 0; n < 4; ++n)
        EXPECT_NEAR(rpq.project(ab.data(), n),
                    rpq.project(a.data(), n) + rpq.project(b.data(), n),
                    1e-4f);
}

TEST(RPQ, InvalidConstructionDies)
{
    EXPECT_DEATH(RPQEngine(0, 8, 1), "positive");
    EXPECT_DEATH(RPQEngine(9, 0, 1), "positive");
}

TEST(RPQ, TooManyBitsRequestedDies)
{
    RPQEngine rpq(9, 8, 1);
    std::vector<float> v(9, 1.0f);
    EXPECT_DEATH(rpq.signatureOf(v.data(), 9), "bits");
}

} // namespace
} // namespace mercury
