/**
 * @file
 * Tests for the runtime-dispatched SIMD kernel layer: exact
 * AVX2-vs-scalar bit-identity of every KernelOps body across odd
 * shapes and tails (the exact conv bodies at every width 1..40), the
 * HIT-copy helper (copyHitRows) against a per-row copy, and
 * end-to-end engine bit-identity under a forced kernel table.
 *
 * AVX2-specific cases skip (GTEST_SKIP) on hosts without AVX2; the
 * scalar path and the helpers are covered everywhere.
 */

#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/kernels/kernels.hpp"
#include "core/mcache.hpp"
#include "core/reuse_runtime.hpp"
#include "core/rpq.hpp"
#include "core/signature.hpp"
#include "tensor/ops.hpp"
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

TEST(Kernels, SignPackColumnsBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    const float denormal = std::numeric_limits<float>::denorm_min();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // +0, -0.0f and NaN of either sign set no bit (p < 0.0f is false);
    // a negative denormal does.
    const float planted[] = {0.0f, -0.0f, nan, -nan, denormal, -denormal};
    constexpr uint64_t kWordSentinel = 0xa5a5a5a5a5a5a5a5ull;
    for (int bits = 1; bits <= 130; bits += bits < 70 ? 1 : 3) {
        const int64_t wpr = Signature::wordsFor(bits);
        for (int64_t n = 1; n <= 40; n += n < 10 ? 1 : 7) {
            const int64_t pitch = n + 1 + bits % 5;
            // The block ends where the allocation does: a read past the
            // last filter's n projections leaves the buffer.
            std::vector<float> proj =
                randomFloats((bits - 1) * pitch + n, 41 * bits + n);
            for (size_t i = 0; i < std::size(planted); ++i) {
                const int64_t b = static_cast<int64_t>(i) % bits;
                proj[static_cast<size_t>(b * pitch + (i * 7) % n)] =
                    planted[i];
            }
            std::vector<uint64_t> w_sc(static_cast<size_t>(n * wpr + 4),
                                       kWordSentinel);
            std::vector<uint64_t> w_ax(w_sc);
            sc.signPackColumns(proj.data(), pitch, n, bits, wpr, w_sc.data());
            ax->signPackColumns(proj.data(), pitch, n, bits, wpr,
                                w_ax.data());
            ASSERT_EQ(w_sc, w_ax) << "bits=" << bits << " n=" << n;
            // The definition: bit b of row i is proj[b*pitch + i] < 0.0f,
            // unused high bits zero.
            std::vector<uint64_t> ref(static_cast<size_t>(n * wpr), 0);
            for (int64_t i = 0; i < n; ++i)
                for (int64_t b = 0; b < bits; ++b)
                    if (proj[static_cast<size_t>(b * pitch + i)] < 0.0f)
                        ref[static_cast<size_t>(i * wpr + b / 64)] |=
                            1ull << (b % 64);
            ASSERT_TRUE(std::equal(ref.begin(), ref.end(), w_ax.begin()))
                << "bits=" << bits << " n=" << n;
            for (size_t i = ref.size(); i < w_ax.size(); ++i)
                ASSERT_EQ(w_ax[i], kWordSentinel)
                    << "write past the block, bits=" << bits << " n=" << n;
        }
    }
}

TEST(Kernels, GatherSpanBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    const int64_t src_n = 64;
    const std::vector<float> src = randomFloats(24 * src_n, 53);
    std::mt19937_64 rng(59);
    // One row of one plane: 0 consecutive from an offset, 1 reversed,
    // 2 one index repeated, 3 random, 4 consecutive with one index in
    // the middle of each octet broken, 5 runs broken at random.
    const auto index_row = [&](int64_t n, int shape, int32_t *idx) {
        const int32_t off = static_cast<int32_t>(rng() % (src_n - n + 1));
        for (int64_t i = 0; i < n; ++i) {
            int32_t x = off + static_cast<int32_t>(i);
            if (shape == 1)
                x = static_cast<int32_t>(src_n - 1 - i);
            else if (shape == 2)
                x = off;
            else if (shape == 3 || (shape == 5 && rng() % 5 == 0))
                x = static_cast<int32_t>(rng() % src_n);
            else if (shape == 4 && i % 8 == 3)
                x = static_cast<int32_t>((x + 17) % src_n);
            idx[i] = x;
        }
    };
    for (int64_t n = 0; n <= 40; ++n) {
        for (int shape = 0; shape < 6; ++shape) {
            std::vector<int32_t> idx(static_cast<size_t>(n));
            index_row(n, shape, idx.data());
            std::vector<float> d1(static_cast<size_t>(n + 8), kSentinel);
            std::vector<float> d2(d1);
            sc.gatherSpan(d1.data(), n, n, src.data(), src_n, idx.data(), n,
                          1, n, 1);
            ax->gatherSpan(d2.data(), n, n, src.data(), src_n, idx.data(), n,
                           1, n, 1);
            ASSERT_EQ(0, std::memcmp(d1.data(), d2.data(),
                                     d1.size() * sizeof(float)))
                << "n=" << n << " shape=" << shape;
            for (int64_t i = 0; i < n; ++i) {
                const size_t at = static_cast<size_t>(i);
                ASSERT_EQ(d1[at], src[static_cast<size_t>(idx[at])]);
            }
            for (int64_t i = n; i < n + 8; ++i)
                ASSERT_EQ(d2[static_cast<size_t>(i)], kSentinel)
                    << "write past the span, n=" << n;
        }
    }
    // The whole-pass form: blocks of rows x n cells at a pitch above n,
    // through index rows at their own pitch, into 1-24 planes; the
    // cells between rows and after the last plane stay sentinels.
    for (const int64_t planes : {1, 2, 3, 7, 12, 24}) {
        for (const int64_t rows : {1, 2, 5, 8}) {
            for (const int64_t n : {1, 4, 7, 8, 9, 16, 17, 30}) {
                const int shape = static_cast<int>(rng() % 6);
                const int64_t idx_pitch = n + static_cast<int64_t>(rng() % 3);
                const int64_t pitch = n + 1 + static_cast<int64_t>(rng() % 3);
                const int64_t plane =
                    rows * pitch + 1 + static_cast<int64_t>(rng() % 5);
                std::vector<int32_t> idx(static_cast<size_t>(rows * idx_pitch),
                                         -1);
                for (int64_t y = 0; y < rows; ++y)
                    index_row(n, shape, idx.data() + y * idx_pitch);
                std::vector<float> d1(static_cast<size_t>(planes * plane + 8),
                                      kSentinel);
                std::vector<float> d2(d1);
                sc.gatherSpan(d1.data(), pitch, plane, src.data(), src_n,
                              idx.data(), idx_pitch, rows, n, planes);
                ax->gatherSpan(d2.data(), pitch, plane, src.data(), src_n,
                               idx.data(), idx_pitch, rows, n, planes);
                const std::string what =
                    "planes=" + std::to_string(planes) +
                    " rows=" + std::to_string(rows) +
                    " n=" + std::to_string(n) +
                    " shape=" + std::to_string(shape);
                ASSERT_EQ(0, std::memcmp(d1.data(), d2.data(),
                                         d1.size() * sizeof(float)))
                    << what;
                for (int64_t q = 0; q < planes; ++q) {
                    for (int64_t at = 0; at < plane; ++at) {
                        const int64_t y = at / pitch, i = at % pitch;
                        const float got =
                            d2[static_cast<size_t>(q * plane + at)];
                        if (y < rows && i < n)
                            ASSERT_EQ(got,
                                      src[static_cast<size_t>(
                                          q * src_n +
                                          idx[static_cast<size_t>(
                                              y * idx_pitch + i)])])
                                << what;
                        else
                            ASSERT_EQ(got, kSentinel)
                                << "write outside the rows, " << what;
                    }
                }
                for (int64_t i = planes * plane; i < planes * plane + 8; ++i)
                    ASSERT_EQ(d2[static_cast<size_t>(i)], kSentinel)
                        << "write past the last plane, " << what;
            }
        }
    }
}

TEST(Kernels, OwnerValuesBitIdentity)
{
    // Owner patches are read from a channel's conv frame: base from
    // positionSlots, taps from tapOffsets(1), at strides 1 and 2.
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    for (int64_t k : {1, 2, 3, 5, 7}) {
        ConvSpec spec;
        spec.kernelH = spec.kernelW = k;
        spec.pad = k / 2;
        spec.stride = k % 2 + 1;
        const ConvFrame frame(spec, 9, 11);
        const int64_t d = k * k, n = frame.outH() * frame.outW();
        const std::vector<int64_t> base = frame.positionSlots();
        const std::vector<int64_t> taps = frame.tapOffsets(1);
        ASSERT_EQ(taps, frame.channelTaps());
        std::vector<float> plane(static_cast<size_t>(frame.size()));
        frame.load(randomFloats(9 * 11, 3 + k).data(), 1, plane.data());
        for (int64_t filters = 1; filters <= 33; ++filters) {
            const std::vector<float> w =
                randomFloats(d * filters, 5 + d * 64 + filters);
            for (int64_t count : {int64_t{1}, int64_t{3}, int64_t{5},
                                  int64_t{7}, int64_t{13}, n}) {
                const std::vector<int32_t> rows =
                    someRows(n, count, 7 + count * 64 + filters);
                // Rows not listed, and one vector past the end, must
                // keep the sentinel.
                std::vector<float> v1(static_cast<size_t>(n * filters + 8),
                                      kSentinel);
                std::vector<float> v2(v1);
                sc.ownerValues(plane.data(), base.data(), taps.data(), d,
                               rows.data(), count, w.data(), filters,
                               v1.data());
                ax->ownerValues(plane.data(), base.data(), taps.data(), d,
                                rows.data(), count, w.data(), filters,
                                v2.data());
                ASSERT_EQ(0, std::memcmp(v1.data(), v2.data(),
                                         v1.size() * sizeof(float)))
                    << "k=" << k << " filters=" << filters
                    << " owners=" << count;
                int64_t written = 0;
                for (const float x : v1)
                    written += x != kSentinel;
                ASSERT_EQ(written, count * filters)
                    << "k=" << k << " filters=" << filters;
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

/** A float with the bits of a signaling NaN: any arithmetic quiets it. */
float
signalingNan()
{
    const uint32_t bits = 0x7fa00001u;
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

TEST(Kernels, GroupSumsBitIdentity)
{
    // Both bodies against each other and against the stream-order walk
    // the dW replays ran before (copy the owner's row into its group,
    // add each HIT row's in turn): cols 1-70, passes of 0-40 rows with
    // no forwards, every row forwarded to one owner, and random maps;
    // the floats after the groups are signaling NaNs no body may touch.
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    const float snan = signalingNan();
    std::mt19937_64 rng(71);
    for (int64_t cols = 1; cols <= 70; ++cols) {
        for (const int64_t rows : {0, 1, 2, 7, 8, 9, 17, 33, 40}) {
            for (int shape = 0; shape < 3; ++shape) {
                std::vector<int32_t> owner(static_cast<size_t>(rows));
                std::vector<int32_t> owner_rows;
                for (int64_t r = 0; r < rows; ++r) {
                    int32_t o = static_cast<int32_t>(r);
                    if (shape == 1)
                        o = 0;
                    else if (shape == 2 && !owner_rows.empty() && rng() % 2)
                        o = owner_rows[rng() % owner_rows.size()];
                    if (o == r)
                        owner_rows.push_back(o);
                    owner[static_cast<size_t>(r)] = o;
                }
                const int64_t groups =
                    static_cast<int64_t>(owner_rows.size());
                const std::vector<float> src =
                    randomFloats(rows * cols, 7 * cols + rows);

                std::vector<float> want(static_cast<size_t>(groups * cols));
                std::vector<int64_t> slot(static_cast<size_t>(rows));
                int64_t u = 0;
                for (int64_t r = 0; r < rows; ++r) {
                    const int64_t o = owner[static_cast<size_t>(r)];
                    const float *row = src.data() + r * cols;
                    if (o == r) {
                        slot[static_cast<size_t>(r)] = u;
                        std::copy(row, row + cols, want.data() + u * cols);
                        ++u;
                    } else {
                        float *dst = want.data() +
                                     slot[static_cast<size_t>(o)] * cols;
                        for (int64_t e = 0; e < cols; ++e)
                            dst[e] += row[e];
                    }
                }

                std::vector<float> s1(static_cast<size_t>(groups * cols + 9),
                                      snan);
                std::vector<float> s2(s1);
                std::vector<int32_t> t1(static_cast<size_t>(2 * rows));
                std::vector<int32_t> t2(t1);
                const std::string what = "cols=" + std::to_string(cols) +
                                         " rows=" + std::to_string(rows) +
                                         " shape=" + std::to_string(shape);
                ASSERT_EQ(sc.groupSums(src.data(), cols, owner.data(), rows,
                                       t1.data(), s1.data()),
                          groups)
                    << what;
                ASSERT_EQ(ax->groupSums(src.data(), cols, owner.data(), rows,
                                        t2.data(), s2.data()),
                          groups)
                    << what;
                ASSERT_EQ(0, std::memcmp(s1.data(), s2.data(),
                                         s1.size() * sizeof(float)))
                    << what;
                // memcmp's pointers must be non-null, even for zero bytes.
                ASSERT_TRUE(want.empty() ||
                            0 == std::memcmp(want.data(), s2.data(),
                                             want.size() * sizeof(float)))
                    << what;
                for (size_t i = want.size(); i < s2.size(); ++i)
                    ASSERT_EQ(0, std::memcmp(&s2[i], &snan, sizeof snan))
                        << "write past the groups, " << what;
                for (int64_t j = 0; j < groups; ++j) {
                    ASSERT_EQ(t1[static_cast<size_t>(j)],
                              owner_rows[static_cast<size_t>(j)])
                        << what;
                    ASSERT_EQ(t2[static_cast<size_t>(j)],
                              owner_rows[static_cast<size_t>(j)])
                        << what;
                }
            }
        }
    }
}

/** One exact-conv kernel case: a plane of `h` x `w` under `spec`. */
struct ExactConvCase
{
    int64_t h, w;
    ConvSpec spec;

    std::string str() const
    {
        return "h=" + std::to_string(h) + " w=" + std::to_string(w) +
               " k=" + std::to_string(spec.kernelH) +
               " s=" + std::to_string(spec.stride) +
               " p=" + std::to_string(spec.pad) +
               " filters=" + std::to_string(spec.outChannels);
    }
};

/**
 * Signaling NaNs after every output plane: one octet, so a full-width
 * store on a partial last octet lands inside them.
 */
constexpr int64_t kGuard = 8;

/**
 * Every (k, stride, pad) of k 1/3/5, stride 1-2, pad 0-2 at every input
 * width 1..40 the kernel fits, with 1..13 filters, 1..3 channels and
 * 1..3 rows cycling so each (k, stride, pad) meets every filter count.
 */
std::vector<ExactConvCase>
exactConvCases()
{
    std::vector<ExactConvCase> cases;
    int64_t i = 0;
    for (int64_t k : {1, 3, 5})
        for (int64_t stride : {1, 2})
            for (int64_t pad : {0, 1, 2})
                for (int64_t w = 1; w <= 40; ++w, ++i) {
                    if (w + 2 * pad < k)
                        continue;
                    ExactConvCase c;
                    c.w = w;
                    c.h = std::max<int64_t>(k - 2 * pad, 1) + i % 3;
                    c.spec.kernelH = c.spec.kernelW = k;
                    c.spec.stride = stride;
                    c.spec.pad = pad;
                    c.spec.inChannels = 1 + i % 3;
                    c.spec.outChannels = 1 + i % 13;
                    cases.push_back(c);
                }
    return cases;
}

TEST(Kernels, ConvForwardBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const KernelOps &sc = kernels::scalarOps();
    const float snan = signalingNan();
    int64_t tails = 0;
    for (const ExactConvCase &c : exactConvCases()) {
        const ConvSpec &spec = c.spec;
        const ConvFrame f(spec, c.h, c.w);
        const int64_t ch = spec.inChannels, filters = spec.outChannels;
        const int64_t oh = f.outH(), ow = f.outW();
        const std::vector<int64_t> tap_off = f.tapOffsets(ch);
        const int64_t taps = static_cast<int64_t>(tap_off.size());
        const std::vector<float> plane =
            randomFloats(ch * c.h * c.w, 3 + c.w * 64 + filters);
        // Exactly the frames: a load past the last one reads past the
        // allocation.
        std::vector<float> frames(static_cast<size_t>(ch * f.size()));
        f.load(plane.data(), ch, frames.data());
        const std::vector<float> w =
            randomFloats(filters * taps, 5 + c.w * 64 + taps);
        const std::vector<float> bias = randomFloats(filters, 7 + c.w);
        // A store that touches a guard changes its bits.
        const int64_t pitch = oh * ow + kGuard;
        std::vector<float> o1(static_cast<size_t>(filters * pitch), snan);
        std::vector<float> o2(o1);
        const bool with_bias = (c.w + filters) % 2 == 0;
        sc.convForward(frames.data(), tap_off.data(), taps, f.rowStep(),
                       w.data(), with_bias ? bias.data() : nullptr, filters,
                       oh, ow, o1.data(), pitch);
        ax->convForward(frames.data(), tap_off.data(), taps, f.rowStep(),
                        w.data(), with_bias ? bias.data() : nullptr, filters,
                        oh, ow, o2.data(), pitch);
        ASSERT_EQ(0, std::memcmp(o1.data(), o2.data(),
                                 o1.size() * sizeof(float)))
            << c.str();
        for (int64_t q = 0; q < filters; ++q)
            for (int64_t i = oh * ow; i < pitch; ++i)
                ASSERT_EQ(0, std::memcmp(&o2[static_cast<size_t>(q * pitch + i)],
                                         &snan, sizeof snan))
                    << "write past plane " << q << ": " << c.str();
        tails += ow % 8 != 0 && ow > 8;
    }
    EXPECT_GT(tails, 0) << "no plane has whole octets and a partial one";
}

TEST(Kernels, ConvBackwardInputBitIdentity)
{
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    const float snan = signalingNan();
    for (const ExactConvCase &c : exactConvCases()) {
        const ConvSpec &spec = c.spec;
        const ConvGradFrame f(spec, c.h, c.w);
        const int64_t filters = spec.outChannels;
        const int64_t kk = spec.kernelH * spec.kernelW;
        const int64_t v = spec.outH(c.h) * spec.outW(c.w);
        Rng rng(11 + static_cast<uint64_t>(c.w * 64 + filters));
        std::vector<float> go(static_cast<size_t>(filters * v));
        for (float &g : go)
            g = rng.bernoulli(0.3) ? (rng.bernoulli(0.5) ? -0.0f : 0.0f)
                                   : static_cast<float>(rng.normal());
        std::vector<float> frames(static_cast<size_t>(filters * f.size()));
        f.load(go.data(), filters, nullptr, frames.data());
        // Kernels pitched as one channel's of several.
        const int64_t kern_pitch = kk * spec.inChannels;
        const std::vector<float> kern =
            randomFloats(filters * kern_pitch, 13 + c.w + filters);
        const int64_t cells = c.h * c.w;
        std::vector<float> g1(static_cast<size_t>(cells + kGuard), snan);
        std::vector<float> g2(g1);
        {
            ForceGuard guard(&kernels::scalarOps());
            f.backwardInput(frames.data(), filters, kern.data(), kern_pitch,
                            g1.data());
        }
        {
            ForceGuard guard(ax);
            f.backwardInput(frames.data(), filters, kern.data(), kern_pitch,
                            g2.data());
        }
        ASSERT_EQ(0, std::memcmp(g1.data(), g2.data(),
                                 g1.size() * sizeof(float)))
            << c.str();
        for (int64_t i = cells; i < cells + kGuard; ++i)
            ASSERT_EQ(0, std::memcmp(&g2[static_cast<size_t>(i)], &snan,
                                     sizeof snan))
                << "write past the plane: " << c.str();
    }
}

#if defined(__x86_64__)
/**
 * XGETBV(1)'s XINUSE bit 2: the upper halves of the YMM registers are
 * not in their initial (zeroed) state.
 */
bool
upperLanesDirty()
{
    uint32_t lo = 0, hi = 0;
    asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
    return (lo & 4u) != 0;
}

TEST(Kernels, Avx2BodiesReturnWithCleanUpperLanes)
{
    // Baseline-ISA code that runs with dirty upper halves pays a merge
    // on every SSE instruction, so every AVX2 body must return with
    // them zeroed (vzeroupper).
    const KernelOps *ax = kernels::avx2Ops();
    if (!ax)
        GTEST_SKIP() << "host lacks AVX2";
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid_count(0xD, 1, &a, &b, &c, &d) || !(a & 4u))
        GTEST_SKIP() << "host lacks XGETBV(1)";
    const std::vector<float> src = randomFloats(4096, 3);
    std::vector<float> dst(4096);
    std::vector<uint64_t> words(64);
    const std::vector<int32_t> rows = {0, 2, 3, 5};
    const std::vector<int32_t> owner = {0, 0, 2, 3, 3, 5, 0, 2, 3};
    std::vector<int32_t> scratch(2 * owner.size());
    const std::vector<int64_t> base = {0, 1, 9, 10};
    const std::vector<int64_t> taps = {0, 1, 2, 9, 10, 11, 18, 19, 20};
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    const ConvFrame frame(spec, 5, 13);
    const ConvGradFrame gframe(spec, 5, 13);
    const std::vector<int64_t> tap_off = frame.tapOffsets(1);
    const std::vector<int64_t> slots = frame.positionSlots();
    struct Call
    {
        const char *name;
        std::function<void()> run;
    };
    const Call calls[] = {
        {"projectRows",
         [&] {
             ax->projectRows(src.data(), 9, 9, src.data(), src.data(), 28,
                             28, dst.data());
         }},
        {"signPack",
         [&] { ax->signPack(src.data(), 9, 28, 1, words.data()); }},
        {"signPackColumns",
         [&] {
             ax->signPackColumns(src.data(), 13, 11, 28, 1, words.data());
         }},
        {"copySpan", [&] { ax->copySpan(dst.data(), src.data(), 77); }},
        {"gatherSpan",
         [&] {
             ax->gatherSpan(dst.data(), 11, 40, src.data(), 9, owner.data(),
                            3, 3, 3, 5);
         }},
        {"groupSums",
         [&] {
             ax->groupSums(src.data(), 13, owner.data(), 9, scratch.data(),
                           dst.data());
         }},
        {"ownerValues",
         [&] {
             ax->ownerValues(src.data(), slots.data(), tap_off.data(), 9,
                             rows.data(), 4, src.data(), 13, dst.data());
         }},
        {"ownerScatter",
         [&] {
             ax->ownerScatter(src.data(), 13, 13, owner.data(), 9,
                              dst.data(), 9);
         }},
        {"ownerWeightMul",
         [&] {
             ax->ownerWeightMul(src.data(), 13, 4, src.data(), base.data(),
                                taps.data(), 9, dst.data());
         }},
        {"convForward",
         [&] {
             ax->convForward(src.data(), tap_off.data(), 9, frame.rowStep(),
                             src.data(), src.data(), 5, 5, 13, dst.data(),
                             65);
         }},
        {"convBackwardInput",
         [&] {
             ax->convBackwardInput(src.data(), gframe.size(), gframe.pitch(),
                                   5, src.data(), 9, 3, 3, 5, 13,
                                   dst.data());
         }},
    };
    for (const Call &call : calls) {
        call.run();
        const bool dirty = upperLanesDirty();
        EXPECT_FALSE(dirty) << call.name << " left the upper lanes dirty";
    }
}
#endif

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
