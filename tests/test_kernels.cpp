/**
 * @file
 * Tests for the runtime-dispatched SIMD kernel layer: exact
 * AVX2-vs-scalar bit-identity of every KernelOps body across odd
 * shapes and tails, the HIT-copy helper (copyHitRows) against a
 * per-row copy, and end-to-end engine bit-identity under a forced
 * kernel table.
 *
 * AVX2-specific cases skip (GTEST_SKIP) on hosts without AVX2; the
 * scalar path and the helpers are covered everywhere.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/kernels/kernels.hpp"
#include "core/mcache.hpp"
#include "core/reuse_runtime.hpp"
#include "core/rpq.hpp"
#include "core/signature.hpp"
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

/** Value no kernel computes: marks floats a kernel must not write. */
constexpr float kSentinel = -12345.5f;

/** `count` distinct rows of [0, n), ascending, drawn with `seed`. */
std::vector<int32_t>
someRows(int64_t n, int64_t count, uint64_t seed)
{
    std::vector<int32_t> all(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r)
        all[static_cast<size_t>(r)] = static_cast<int32_t>(r);
    std::mt19937_64 rng(seed);
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(static_cast<size_t>(count));
    std::sort(all.begin(), all.end());
    return all;
}

TEST(Kernels, OwnerValuesBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    const int64_t n = 40;
    for (int64_t d : {1, 4, 9, 25, 49}) {
        const std::vector<float> patches = randomFloats(n * d, 3 + d);
        for (int64_t filters = 1; filters <= 33; ++filters) {
            const std::vector<float> w =
                randomFloats(d * filters, 5 + d * 64 + filters);
            for (int64_t count : {1, 3, 5, 7, 13, 27}) {
                const std::vector<int32_t> rows =
                    someRows(n, count, 7 + count * 64 + filters);
                // Rows not listed, and one vector past the end, must
                // keep the sentinel.
                std::vector<float> v1(static_cast<size_t>(n * filters + 8),
                                      kSentinel);
                std::vector<float> v2(v1);
                sc.ownerValues(patches.data(), d, rows.data(), count,
                               w.data(), filters, v1.data());
                ax->ownerValues(patches.data(), d, rows.data(), count,
                                w.data(), filters, v2.data());
                ASSERT_EQ(0, std::memcmp(v1.data(), v2.data(),
                                         v1.size() * sizeof(float)))
                    << "d=" << d << " filters=" << filters
                    << " owners=" << count;
                int64_t written = 0;
                for (const float x : v1)
                    written += x != kSentinel;
                ASSERT_EQ(written, count * filters)
                    << "d=" << d << " filters=" << filters;
            }
        }
    }
}

TEST(Kernels, OwnerScatterBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    for (int64_t n : {1, 7, 9, 16, 23, 67}) {
        // Owners at or before their row, each owning itself.
        std::vector<int32_t> owner(static_cast<size_t>(n));
        std::mt19937_64 rng(17 + n);
        for (int64_t i = 0; i < n; ++i) {
            const int64_t o = static_cast<int64_t>(rng() % (i + 1));
            owner[static_cast<size_t>(i)] =
                owner[static_cast<size_t>(o)] == o ? static_cast<int32_t>(o)
                                                   : static_cast<int32_t>(i);
        }
        for (int64_t filters = 1; filters <= 33; ++filters) {
            const int64_t pitch = filters + 3; // vals rows wider than read
            const std::vector<float> vals =
                randomFloats(n * pitch, 19 + n * 64 + filters);
            // Each filter's n outputs are followed by signaling NaNs: an
            // add that touches one, even of +0, quiets it and so
            // changes its bits.
            const int64_t out_pitch = n + 5;
            std::vector<float> o1 = randomFloats(filters * out_pitch,
                                                 23 + filters);
            const uint32_t snan_bits = 0x7fa00001u;
            float snan;
            std::memcpy(&snan, &snan_bits, sizeof snan);
            for (int64_t f = 0; f < filters; ++f)
                for (int64_t i = n; i < out_pitch; ++i)
                    o1[static_cast<size_t>(f * out_pitch + i)] = snan;
            std::vector<float> o2(o1);
            sc.ownerScatter(vals.data(), pitch, filters, owner.data(), n,
                            o1.data(), out_pitch);
            ax->ownerScatter(vals.data(), pitch, filters, owner.data(), n,
                             o2.data(), out_pitch);
            ASSERT_EQ(0, std::memcmp(o1.data(), o2.data(),
                                     o1.size() * sizeof(float)))
                << "n=" << n << " filters=" << filters;
            for (int64_t f = 0; f < filters; ++f)
                ASSERT_EQ(0, std::memcmp(&o1[static_cast<size_t>(
                                             f * out_pitch + n)],
                                         &snan, sizeof snan));
        }
    }
}

TEST(Kernels, OwnerWeightMulBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    const int64_t frame_size = 400;
    const std::vector<float> frame = randomFloats(frame_size, 29);
    for (int64_t d : {1, 4, 9, 25, 49}) {
        std::mt19937_64 rng(31 + d);
        std::vector<int64_t> tap_off(static_cast<size_t>(d));
        for (int64_t &t : tap_off)
            t = static_cast<int64_t>(rng() % 100);
        for (int64_t owners : {1, 3, 10, 37}) {
            std::vector<int64_t> base(static_cast<size_t>(owners));
            for (int64_t &b : base)
                b = static_cast<int64_t>(rng() % (frame_size - 100));
            for (int64_t filters = 1; filters <= 33; ++filters) {
                const std::vector<float> sums = randomFloats(
                    owners * filters, 37 + owners * 64 + filters);
                std::vector<float> a1 =
                    randomFloats(d * filters + 8, 41 + d + filters);
                std::fill(a1.end() - 8, a1.end(), kSentinel);
                std::vector<float> a2(a1);
                sc.ownerWeightMul(sums.data(), filters, owners,
                                  frame.data(), base.data(), tap_off.data(),
                                  d, a1.data());
                ax->ownerWeightMul(sums.data(), filters, owners,
                                   frame.data(), base.data(),
                                   tap_off.data(), d, a2.data());
                ASSERT_EQ(0, std::memcmp(a1.data(), a2.data(),
                                         a1.size() * sizeof(float)))
                    << "d=" << d << " owners=" << owners
                    << " filters=" << filters;
                ASSERT_EQ(a1.back(), kSentinel);
            }
        }
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

/**
 * A structurally sound pass over `rows` rows (owners own themselves
 * and precede their HIT rows), in one of four shapes: 0 = runs of
 * consecutive rows forwarding from consecutive owners, broken at
 * random; 1 = every forwarded row picks a random earlier owner
 * (mostly singletons); 2 = no forwarded rows; 3 = row 0 owns every
 * other row.
 */
SignatureRecord::Pass
seededOwnerPass(int64_t rows, int shape, std::mt19937_64 &rng)
{
    SignatureRecord::Pass pass;
    pass.rows = rows;
    pass.owners.resize(static_cast<size_t>(rows));
    std::vector<int32_t> owners_so_far;
    for (int32_t r = 0; r < rows; ++r) {
        int32_t o = r;
        if (shape == 3) {
            o = 0;
        } else if (!owners_so_far.empty() && shape != 2 && rng() % 3) {
            // Shape 0 extends the previous row's run when it can.
            const int32_t prev = r > 0 ? pass.owner(r - 1) : -1;
            const bool extend = shape == 0 && prev >= 0 && prev != r - 1 &&
                                pass.owner(prev + 1) == prev + 1 &&
                                rng() % 4 != 0;
            o = extend ? prev + 1
                       : owners_so_far[rng() % owners_so_far.size()];
        }
        pass.owners[static_cast<size_t>(r)] = o;
        if (o == r)
            owners_so_far.push_back(r);
        pass.forwarded += o != r;
    }
    return pass;
}

int64_t gCopySpans = 0;

void
countingCopySpan(float *dst, const float *src, int64_t n)
{
    ++gCopySpans;
    kernels::scalarOps().copySpan(dst, src, n);
}

TEST(CopyHitRows, SeededPassesMatchPerRowCopy)
{
    // The helper against a per-row copy on seeded passes of every
    // shape: forwarded rows take their owner's row, owner rows (the
    // sentinels, holding their own values) stay bit for bit, and each
    // maximal run — rows and owners both stepping by one — costs one
    // copySpan.
    KernelOps counting = kernels::scalarOps();
    counting.copySpan = &countingCopySpan;
    ForceGuard guard(&counting);
    std::mt19937_64 rng(2027);
    int64_t runs_seen = 0, long_runs = 0;
    for (int seed = 0; seed < 400; ++seed) {
        const int shape = seed % 4;
        const int64_t rows = 1 + static_cast<int64_t>(rng() % 97);
        const int64_t cols = 1 + static_cast<int64_t>(rng() % 11);
        const SignatureRecord::Pass pass =
            seededOwnerPass(rows, shape, rng);
        const std::vector<float> init = randomFloats(rows * cols, seed);
        Tensor t({rows, cols});
        std::copy(init.begin(), init.end(), t.data());

        std::vector<float> ref = init;
        int64_t runs = 0;
        for (int64_t r = 0; r < rows; ++r) {
            const int64_t o = pass.owner(r);
            if (o == r)
                continue;
            std::copy(init.begin() + o * cols, init.begin() + (o + 1) * cols,
                      ref.begin() + r * cols);
            const bool extends = r > 0 && pass.owner(r - 1) != r - 1 &&
                                 pass.owner(r - 1) + 1 == o;
            runs += !extends;
            long_runs += extends;
        }
        gCopySpans = 0;
        copyHitRows(t, pass);
        ASSERT_EQ(0, std::memcmp(ref.data(), t.data(),
                                 ref.size() * sizeof(float)))
            << "seed " << seed << " shape " << shape << " rows " << rows;
        EXPECT_EQ(gCopySpans, runs)
            << "seed " << seed << " shape " << shape;
        if (shape == 2) {
            EXPECT_EQ(gCopySpans, 0) << "no forwarded rows, no copies";
        }
        runs_seen += runs;
    }
    EXPECT_GT(runs_seen, 0);
    EXPECT_GT(long_runs, 0) << "the seeds must produce multi-row runs";
}

TEST(CopyHitRows, OneOwnerFeedsEveryRowOneCopyEach)
{
    // Row 0 owns every row: no two forwarded rows have consecutive
    // owners, so each takes its own copySpan, all from row 0.
    KernelOps counting = kernels::scalarOps();
    counting.copySpan = &countingCopySpan;
    ForceGuard guard(&counting);
    SignatureRecord::Pass pass;
    pass.rows = 6;
    pass.owners.assign(6, 0);
    pass.forwarded = 5;
    Tensor t({6, 3});
    for (int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(i);
    gCopySpans = 0;
    copyHitRows(t, pass);
    EXPECT_EQ(gCopySpans, 5);
    for (int64_t r = 0; r < 6; ++r)
        for (int64_t c = 0; c < 3; ++c)
            EXPECT_EQ(t.at2(r, c), static_cast<float>(c)) << r;
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
