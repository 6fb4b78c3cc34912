/**
 * @file
 * Tests for the runtime-dispatched SIMD kernel layer: exact
 * AVX2-vs-scalar bit-identity of every KernelOps body across odd
 * shapes and tails, the span-batching helper, the PassArena
 * contract, and end-to-end engine bit-identity under a forced kernel
 * table.
 *
 * AVX2-specific cases skip (GTEST_SKIP) on hosts without AVX2; the
 * scalar path and the helpers are covered everywhere.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/kernels/kernels.hpp"
#include "core/mcache.hpp"
#include "core/pass_arena.hpp"
#include "core/rpq.hpp"
#include "core/signature.hpp"
#include "core/span_batcher.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

using kernels::KernelOps;

/** Restores normal dispatch when a forced-table test exits. */
struct ForceGuard
{
    explicit ForceGuard(const KernelOps *t)
    {
        kernels::forceForTesting(t);
    }
    ~ForceGuard() { kernels::forceForTesting(nullptr); }
};

std::vector<float>
randomFloats(int64_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    std::vector<float> v(static_cast<size_t>(n));
    for (float &x : v)
        x = dist(rng);
    return v;
}

TEST(Kernels, ScalarTableAlwaysAvailable)
{
    const KernelOps &sc = kernels::scalarOps();
    EXPECT_STREQ(sc.name, "scalar");
    EXPECT_FALSE(sc.wantsInterleaved);
    const KernelOps &active = kernels::ops();
    EXPECT_TRUE(std::string(active.name) == "scalar" ||
                std::string(active.name) == "avx2");
}

TEST(Kernels, ProjectRowsBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();

    // Odd row counts exercise the 4-row register-tile tail. Every bit
    // count 1..67 runs twice: with the mirror exactly `bits` wide (a
    // partial last octet takes the scalar tail) and wider (it takes
    // the masked octet inside the vector loop). Eight sentinels after
    // the output block must survive either way.
    constexpr float kSentinel = 12345.0f;
    for (int64_t nrows : {1, 3, 7, 33}) {
        for (int64_t d : {9, 16, 25, 27}) {
            for (int bits = 1; bits <= 67; ++bits) {
                for (int stride : {bits, bits + 9}) {
                    const std::vector<float> rows = randomFloats(
                        nrows * d,
                        1000 + static_cast<uint64_t>(nrows * d * bits));
                    std::vector<float> cols(static_cast<size_t>(d) *
                                            stride);
                    std::vector<float> inter(static_cast<size_t>(d) *
                                             stride);
                    const std::vector<float> vals = randomFloats(
                        d * stride, 77 + static_cast<uint64_t>(bits));
                    for (int n = 0; n < stride; ++n)
                        for (int64_t i = 0; i < d; ++i) {
                            const float v =
                                vals[static_cast<size_t>(n) * d + i];
                            cols[static_cast<size_t>(n) * d + i] = v;
                            inter[static_cast<size_t>(i) * stride + n] = v;
                        }
                    std::vector<float> out_sc(
                        static_cast<size_t>(nrows) * bits + 8, kSentinel);
                    std::vector<float> out_ax(out_sc);
                    sc.projectRows(rows.data(), nrows, d, cols.data(),
                                   nullptr, stride, bits, out_sc.data());
                    ax->projectRows(rows.data(), nrows, d, cols.data(),
                                    inter.data(), stride, bits,
                                    out_ax.data());
                    // Bit-identity, not tolerance: memcmp the blocks.
                    ASSERT_EQ(0, std::memcmp(out_sc.data(), out_ax.data(),
                                             out_sc.size() *
                                                 sizeof(float)))
                        << "nrows=" << nrows << " d=" << d
                        << " bits=" << bits << " stride=" << stride;
                    for (size_t j = out_ax.size() - 8; j < out_ax.size();
                         ++j)
                        ASSERT_EQ(out_ax[j], kSentinel)
                            << "write past the block: bits=" << bits
                            << " stride=" << stride;
                }
            }
        }
    }
}

TEST(Kernels, ProjectRowsStridedInterleave)
{
    // inter_stride > bits: the mirror is built for max_bits but a
    // narrower projection reads only the first `bits` lanes.
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const int64_t d = 27, nrows = 13;
    const int max_bits = 48, bits = 19;
    const std::vector<float> rows = randomFloats(nrows * d, 5);
    const std::vector<float> vals = randomFloats(d * max_bits, 6);
    std::vector<float> cols(static_cast<size_t>(d) * max_bits);
    std::vector<float> inter(static_cast<size_t>(d) * max_bits);
    for (int n = 0; n < max_bits; ++n)
        for (int64_t i = 0; i < d; ++i) {
            const float v = vals[static_cast<size_t>(n) * d + i];
            cols[static_cast<size_t>(n) * d + i] = v;
            inter[static_cast<size_t>(i) * max_bits + n] = v;
        }
    std::vector<float> out_sc(static_cast<size_t>(nrows) * bits);
    std::vector<float> out_ax(out_sc);
    kernels::scalarOps().projectRows(rows.data(), nrows, d,
                                     cols.data(), nullptr, max_bits,
                                     bits, out_sc.data());
    ax->projectRows(rows.data(), nrows, d, cols.data(), inter.data(),
                    max_bits, bits, out_ax.data());
    EXPECT_EQ(0, std::memcmp(out_sc.data(), out_ax.data(),
                             out_sc.size() * sizeof(float)));
}

TEST(Kernels, SignPackBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    for (int64_t nrows : {1, 3, 9}) {
        for (int bits : {1, 7, 8, 16, 31, 63, 64, 67, 128, 130}) {
            const int64_t wpr = Signature::wordsFor(bits);
            std::vector<float> proj =
                randomFloats(nrows * bits, 31 * bits + nrows);
            // Plant the trap values: -0.0f must NOT set the bit
            // (matches p < 0.0f), +0.0f must not either.
            proj[0] = -0.0f;
            if (proj.size() > 1)
                proj[1] = 0.0f;
            std::vector<uint64_t> w_sc(
                static_cast<size_t>(nrows * wpr), ~0ull);
            std::vector<uint64_t> w_ax(w_sc);
            sc.signPack(proj.data(), nrows, bits, wpr, w_sc.data());
            ax->signPack(proj.data(), nrows, bits, wpr, w_ax.data());
            ASSERT_EQ(w_sc, w_ax) << "nrows=" << nrows
                                  << " bits=" << bits;
            EXPECT_EQ(0u, w_sc[0] & 1u) << "-0.0f set a sign bit";
            // Unused high bits of the last word must be zero so
            // Signature equality/hash see canonical words.
            if (bits % 64 != 0) {
                const uint64_t mask = ~((1ull << (bits % 64)) - 1);
                for (int64_t r = 0; r < nrows; ++r)
                    EXPECT_EQ(0u,
                              w_sc[static_cast<size_t>(
                                       (r + 1) * wpr - 1)] &
                                  mask);
            }
        }
    }
}

TEST(Kernels, SpanKernelsBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    for (int64_t n : {0, 1, 7, 8, 9, 31, 64, 1000}) {
        const std::vector<float> src = randomFloats(n, 11 + n);
        const std::vector<float> base = randomFloats(n, 13 + n);

        std::vector<float> d1(base), d2(base);
        sc.copySpan(d1.data(), src.data(), n);
        ax->copySpan(d2.data(), src.data(), n);
        ASSERT_EQ(d1, d2) << "copySpan n=" << n;

        d1 = base;
        d2 = base;
        sc.addSpan(d1.data(), src.data(), n);
        ax->addSpan(d2.data(), src.data(), n);
        ASSERT_EQ(d1, d2) << "addSpan n=" << n;
    }
}

TEST(Kernels, ExtractPatchesMatchesNaiveIm2colEverywhere)
{
    // The fused single-touch patch extractor must agree element for
    // element with the textbook im2col loop on every geometry the
    // conv engines use — interior positions, zero-padded borders,
    // strided grids — and on partial [r0, r1) row ranges (the block
    // schedule extracts one detection block at a time).
    struct Geometry
    {
        int64_t h, w, k, stride, pad;
    };
    const Geometry cases[] = {
        {8, 8, 3, 1, 1},  // same-pad 3x3, borders clipped on all sides
        {8, 8, 3, 1, 0},  // valid conv, no padding path at all
        {9, 7, 3, 2, 1},  // strided + odd extent, ragged right edge
        {6, 6, 5, 1, 2},  // kernel wider than the pad on both sides
        {5, 5, 1, 1, 0},  // 1x1: pure row gather
        {7, 4, 3, 2, 2},  // pad >= stride: leading all-zero columns
        {16, 16, 3, 1, 1}, // the training proxies' plane
        {12, 11, 7, 1, 3}, // 7x7, clipped on every side
        {10, 13, 8, 2, 3}, // 8x8: the widest masked kernel row
        {13, 12, 9, 1, 4}, // 9x9: wider than a vector, the span path
        {9, 9, 9, 1, 0},   // 9x9 valid: one position
    };
    const KernelOps *ax = kernels::avx2Ops();
    for (const Geometry &g : cases) {
        const int64_t oh = (g.h + 2 * g.pad - g.k) / g.stride + 1;
        const int64_t ow = (g.w + 2 * g.pad - g.k) / g.stride + 1;
        const int64_t n_rows = oh * ow;
        const int64_t d = g.k * g.k;
        const std::vector<float> plane = randomFloats(
            g.h * g.w, 500 + static_cast<uint64_t>(g.h * g.w * g.k));

        // Naive reference: per-element bounds-checked gather.
        std::vector<float> ref(static_cast<size_t>(n_rows * d), 0.0f);
        for (int64_t r = 0; r < n_rows; ++r)
            for (int64_t ky = 0; ky < g.k; ++ky)
                for (int64_t kx = 0; kx < g.k; ++kx) {
                    const int64_t iy = (r / ow) * g.stride - g.pad + ky;
                    const int64_t ix = (r % ow) * g.stride - g.pad + kx;
                    if (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w)
                        continue;
                    ref[static_cast<size_t>(r * d + ky * g.k + kx)] =
                        plane[static_cast<size_t>(iy * g.w + ix)];
                }

        // Partial ranges too: full pass, a mid-pass block, and the
        // final ragged block.
        const int64_t splits[][2] = {
            {0, n_rows}, {n_rows / 3, 2 * n_rows / 3}, {n_rows - 1, n_rows}};
        for (const auto &s : splits) {
            std::vector<float> got(static_cast<size_t>(n_rows * d),
                                   -7.0f);
            kernels::scalarOps().extractPatches(
                plane.data(), g.h, g.w, ow, g.stride, g.pad, g.k, s[0],
                s[1], got.data());
            for (int64_t r = s[0]; r < s[1]; ++r)
                for (int64_t e = 0; e < d; ++e)
                    ASSERT_EQ(got[static_cast<size_t>(r * d + e)],
                              ref[static_cast<size_t>(r * d + e)])
                        << "scalar h=" << g.h << " w=" << g.w
                        << " k=" << g.k << " stride=" << g.stride
                        << " pad=" << g.pad << " row " << r << " elem "
                        << e;
            // Rows outside [r0, r1) keep their sentinel.
            const auto untouched = [&](const std::vector<float> &v) {
                for (int64_t i = 0; i < n_rows * d; ++i)
                    if ((i < s[0] * d || i >= s[1] * d) &&
                        v[static_cast<size_t>(i)] != -7.0f)
                        return false;
                return true;
            };
            ASSERT_TRUE(untouched(got))
                << "scalar wrote outside its rows, k=" << g.k;
            if (!ax)
                continue;
            std::vector<float> got_ax(static_cast<size_t>(n_rows * d),
                                      -7.0f);
            ax->extractPatches(plane.data(), g.h, g.w, ow, g.stride,
                               g.pad, g.k, s[0], s[1], got_ax.data());
            ASSERT_EQ(0, std::memcmp(got.data() + s[0] * d,
                                     got_ax.data() + s[0] * d,
                                     static_cast<size_t>((s[1] - s[0]) *
                                                         d) *
                                         sizeof(float)))
                << "avx2 h=" << g.h << " w=" << g.w << " k=" << g.k
                << " stride=" << g.stride << " pad=" << g.pad;
            ASSERT_TRUE(untouched(got_ax))
                << "avx2 wrote outside its rows, k=" << g.k;
        }
    }
}

TEST(Kernels, ProjectBlockMatchesPerRowProject)
{
    // The engine's blocked front end must agree bit-for-bit with the
    // scalar per-row project() regardless of the dispatched table.
    RPQEngine rpq(27, 40, 99);
    Rng rng(3);
    Tensor rows({21, 27});
    rows.fillNormal(rng);
    for (int bits : {1, 8, 17, 40}) {
        std::vector<float> block(static_cast<size_t>(21) * bits);
        rpq.projectBlock(rows, 0, 21, bits, block.data());
        for (int64_t r = 0; r < 21; ++r)
            for (int n = 0; n < bits; ++n)
                ASSERT_EQ(rpq.project(rows.data() + r * 27, n),
                          block[static_cast<size_t>(r) * bits + n])
                    << "row " << r << " bit " << n;
    }
    // The words entry writes signatureOfRow's packed words.
    std::vector<uint64_t> words(21);
    rpq.signatureWords(rows, 0, 21, 40, words.data());
    for (int64_t r = 0; r < 21; ++r)
        ASSERT_EQ(words[static_cast<size_t>(r)],
                  rpq.signatureOfRow(rows, r, 40).words()[0])
            << "row " << r;
}

TEST(SpanBatcher, ConsecutiveSpans)
{
    // rows/owners both stepping by one fuse; any break splits.
    const std::vector<int64_t> rows = {2, 3, 4, 6, 7, 9, 10, 11, 15};
    const std::vector<int64_t> owners = {0, 1, 2, 0, 1, 3, 4, 8, 9};
    std::vector<std::pair<int64_t, int64_t>> spans;
    forEachConsecutiveSpan(rows.data(), owners.data(),
                           static_cast<int64_t>(rows.size()),
                           [&](int64_t i0, int64_t i1) {
                               spans.emplace_back(i0, i1);
                           });
    // {2,3,4}<-{0,1,2}; {6,7}<-{0,1}; {9,10}<-{3,4}; {11}<-{8}
    // (rows 10->11 consecutive but owners 4->8 not); {15}<-{9}.
    const std::vector<std::pair<int64_t, int64_t>> expect = {
        {0, 3}, {3, 5}, {5, 7}, {7, 8}, {8, 9}};
    EXPECT_EQ(expect, spans);

    // Empty list: no callbacks.
    forEachConsecutiveSpan(rows.data(), owners.data(), 0,
                           [&](int64_t, int64_t) { FAIL(); });
}

TEST(PassArena, AlignmentAndReuse)
{
    PassArena arena;
    float *a = arena.floats(100);
    int64_t *b = arena.indices(7);
    uint8_t *c = arena.bytes(3);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(a) % 64);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(b) % 64);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(c) % 64);
    a[99] = 1.0f;
    b[6] = 2;
    c[2] = 3;

    // reset() rewinds without freeing: the same storage comes back.
    arena.reset();
    float *a2 = arena.floats(100);
    EXPECT_EQ(a, a2);

    // An allocation bigger than the chunk gets its own chunk and is
    // still aligned; after reset the sequence replays identically.
    float *big = arena.floats(1 << 18);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(big) % 64);
    big[(1 << 18) - 1] = 4.0f;
    arena.reset();
    EXPECT_EQ(a, arena.floats(100));
    EXPECT_EQ(big, arena.floats(1 << 18));
}

/** Conv forward under a specific kernel table. */
Tensor
convForwardWith(const KernelOps *table, ReuseStats &stats)
{
    ForceGuard guard(table);
    Rng rng(17);
    Tensor in({2, 3, 8, 8});
    // Low-frequency input so HIT forwarding (the span-copy path)
    // actually runs.
    for (int64_t b = 0; b < 2; ++b)
        for (int64_t c = 0; c < 3; ++c) {
            const float base = static_cast<float>(rng.normal());
            for (int64_t y = 0; y < 8; ++y)
                for (int64_t x = 0; x < 8; ++x)
                    in.at4(b, c, y, x) =
                        base +
                        0.01f * static_cast<float>(rng.normal());
        }
    Tensor w({4, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;

    MCache cache(256, 8, 4);
    ConvReuseEngine engine(cache, 8, 21);
    return engine.forward(in, w, Tensor(), spec, stats);
}

TEST(Kernels, ConvForwardScalarVsAvx2BitIdentical)
{
    if (!kernels::avx2Ops())
        GTEST_SKIP() << "host lacks AVX2";
    ReuseStats s1, s2;
    const Tensor a = convForwardWith(&kernels::scalarOps(), s1);
    const Tensor b = convForwardWith(kernels::avx2Ops(), s2);
    // Same hit mix (identical signatures) and identical floats.
    EXPECT_EQ(s1.mix.hit, s2.mix.hit);
    EXPECT_GT(s1.mix.hit, 0) << "test shape produced no HITs";
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) *
                                 sizeof(float)));
}

/** FC forward under a specific kernel table. */
Tensor
fcForwardWith(const KernelOps *table, ReuseStats &stats)
{
    ForceGuard guard(table);
    Rng rng(23);
    Tensor in({24, 16});
    // Duplicate blocks of rows so HIT spans coalesce.
    for (int64_t i = 0; i < 24; ++i)
        for (int64_t j = 0; j < 16; ++j)
            in.at2(i, j) = static_cast<float>((i / 8) + 1) *
                           0.25f * static_cast<float>(j % 5);
    Tensor w({16, 10});
    w.fillNormal(rng);
    MCache cache(128, 8, 4);
    FcEngine engine(cache, 12, 31);
    return engine.forward(in, w, stats);
}

TEST(Kernels, FcForwardScalarVsAvx2BitIdentical)
{
    if (!kernels::avx2Ops())
        GTEST_SKIP() << "host lacks AVX2";
    ReuseStats s1, s2;
    const Tensor a = fcForwardWith(&kernels::scalarOps(), s1);
    const Tensor b = fcForwardWith(kernels::avx2Ops(), s2);
    EXPECT_EQ(s1.mix.hit, s2.mix.hit);
    EXPECT_GT(s1.mix.hit, 0) << "test shape produced no HITs";
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) *
                                 sizeof(float)));
}

} // namespace
} // namespace mercury
