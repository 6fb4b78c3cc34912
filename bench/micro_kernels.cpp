/**
 * @file
 * Per-kernel microbenchmark for the runtime-dispatched SIMD layer:
 * times each KernelOps body (scalar vs AVX2 when the host has it) on
 * RPQ-shaped blocks, the conv reuse passes' owner kernels and the
 * exact conv ops' bodies, then the exact training step's glue ops
 * (pooling, ReLU, frame loads, the gradient transpose and the bias
 * sums, one body each) at the four VGG-13 proxy conv shapes, and
 * reports cycles-per-row and GB/s, emitting one BENCH_kernels.json
 * line that tools/check_bench.py gates.
 *
 * Cycles come from the TSC where the target has one (x86); on other
 * targets the cycle columns print as null and only GB/s is gated.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bench_common.hpp"
#include "core/kernels/kernels.hpp"
#include "core/signature.hpp"
#include "tensor/ops.hpp"

using namespace mercury;

namespace {

inline uint64_t
tsc()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return 0;
#endif
}

struct Meas
{
    double sec = 1e30;    ///< best-of-reps wall seconds
    double cycles = 1e30; ///< best-of-reps TSC delta (0 off-x86)
};

/**
 * Best-of-reps timing with the same rep policy as bench::bestSeconds,
 * recording wall seconds and TSC cycles for the same invocations.
 */
template <typename Fn>
Meas
measure(Fn &&fn, double min_total = 0.2, int min_reps = 5)
{
    if (bench::smoke()) {
        min_total = 0.005;
        min_reps = 2;
    } else if (const int reps = bench::reducedReps()) {
        min_total = 0.0;
        min_reps = reps;
    }
    using clock = std::chrono::steady_clock;
    Meas m;
    double total = 0.0;
    int reps = 0;
    while (reps < min_reps || total < min_total) {
        const uint64_t c0 = tsc();
        const auto t0 = clock::now();
        fn();
        const std::chrono::duration<double> dt = clock::now() - t0;
        const uint64_t c1 = tsc();
        m.sec = std::min(m.sec, dt.count());
        m.cycles = std::min(m.cycles,
                            static_cast<double>(c1 - c0));
        total += dt.count();
        ++reps;
    }
    if (tsc() == 0)
        m.cycles = std::nan("");
    return m;
}

volatile float g_sink; ///< defeats dead-code elimination

} // namespace

int
main()
{
    bench::banner("micro_kernels: SIMD kernel layer, scalar vs AVX2",
                  "wall-clock mechanism (kernel layer is repo "
                  "infrastructure, not a paper figure)");

    const bool smoke = bench::smoke();
    // RPQ-shaped block: d matches a 3x3x32 conv patch, bits matches
    // the overlapped bench's signature width.
    const int64_t nrows = smoke ? 64 : 4096;
    const int64_t d = 288;
    const int bits = 16;
    const int64_t span = smoke ? 4096 : 1 << 20;

    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> rows(static_cast<size_t>(nrows * d));
    std::vector<float> cols(static_cast<size_t>(d) * bits);
    std::vector<float> inter(static_cast<size_t>(d) * bits);
    for (float &v : rows)
        v = dist(rng);
    for (int n = 0; n < bits; ++n)
        for (int64_t i = 0; i < d; ++i) {
            const float v = dist(rng);
            cols[static_cast<size_t>(n) * d + i] = v;
            inter[static_cast<size_t>(i) * bits + n] = v;
        }
    std::vector<float> proj(static_cast<size_t>(nrows) * bits);
    const int64_t wpr = Signature::wordsFor(bits);
    std::vector<uint64_t> words(static_cast<size_t>(nrows * wpr));
    std::vector<float> src(static_cast<size_t>(span));
    std::vector<float> dst(static_cast<size_t>(span));
    for (float &v : src)
        v = dist(rng);

    // The training proxies' shape (perfbench vgg13_train): 3x3 channel
    // patches (d 9) hashed at 28 bits against a mirror provisioned for
    // 64, so the last 4 filters are a partial octet; the conv passes
    // hash the patches of 16x16 and 8x8 planes with pad 1.
    const int64_t d_train = 9;
    const int bits_train = 28;
    const int stride_train = 64;
    const int64_t planes = smoke ? 4 : 256;
    std::vector<float> rows_train(static_cast<size_t>(nrows * d_train));
    std::vector<float> cols_train(static_cast<size_t>(d_train) *
                                  stride_train);
    std::vector<float> inter_train(cols_train.size());
    for (float &v : rows_train)
        v = dist(rng);
    for (int n = 0; n < stride_train; ++n)
        for (int64_t i = 0; i < d_train; ++i) {
            const float v = dist(rng);
            cols_train[static_cast<size_t>(n) * d_train + i] = v;
            inter_train[static_cast<size_t>(i) * stride_train + n] = v;
        }
    std::vector<float> proj_train(static_cast<size_t>(nrows) * bits_train);
    std::vector<uint64_t> words_train(static_cast<size_t>(nrows));

    const kernels::KernelOps &sc = kernels::scalarOps();
    const kernels::KernelOps *ax = kernels::avx2Ops();

    struct Result
    {
        double cpr_scalar, cpr_avx2; ///< cycles per row
        double gbps;                 ///< active table GB/s
        double speedup;              ///< scalar sec / avx2 sec
    };
    auto run = [&](double bytes, int64_t per_rows, auto &&call) {
        const Meas ms = measure([&] { call(sc); });
        Meas ma;
        ma.sec = std::nan("");
        ma.cycles = std::nan("");
        if (ax)
            ma = measure([&] { call(*ax); });
        Result r;
        r.cpr_scalar = ms.cycles / static_cast<double>(per_rows);
        r.cpr_avx2 = ma.cycles / static_cast<double>(per_rows);
        const double best_sec = ax ? ma.sec : ms.sec;
        r.gbps = bytes / best_sec * 1e-9;
        r.speedup = ax ? ms.sec / ma.sec : std::nan("");
        return r;
    };

    // 1) RPQ projection: the detection front-end's hashing hot loop.
    const Result project = run(
        static_cast<double>(nrows) * (d + bits) * sizeof(float),
        nrows, [&](const kernels::KernelOps &k) {
            k.projectRows(rows.data(), nrows, d, cols.data(),
                          k.wantsInterleaved ? inter.data() : nullptr,
                          bits, bits, proj.data());
            g_sink = proj[0];
        });

    // 2) Sign-pack: projection block -> signature words.
    const Result sigpack = run(
        static_cast<double>(nrows) *
            (bits * sizeof(float) + wpr * sizeof(uint64_t)),
        nrows, [&](const kernels::KernelOps &k) {
            k.signPack(proj.data(), nrows, bits, wpr, words.data());
            g_sink = static_cast<float>(words[0] & 1u);
        });

    // 3) The same two at the training shape.
    const Result project_train = run(
        static_cast<double>(nrows) * (d_train + bits_train) * sizeof(float),
        nrows, [&](const kernels::KernelOps &k) {
            k.projectRows(rows_train.data(), nrows, d_train,
                          cols_train.data(),
                          k.wantsInterleaved ? inter_train.data() : nullptr,
                          stride_train, bits_train, proj_train.data());
            g_sink = proj_train[0];
        });
    const Result sigpack_train = run(
        static_cast<double>(nrows) *
            (bits_train * sizeof(float) + sizeof(uint64_t)),
        nrows, [&](const kernels::KernelOps &k) {
            k.signPack(proj_train.data(), nrows, bits_train, 1,
                       words_train.data());
            g_sink = static_cast<float>(words_train[0] & 1u);
        });

    // 4) Frame signatures, the conv passes' form of 3): 28 random
    //    filters convolved over one channel's 3x3 pad-1 frame straight
    //    into packed words (signFrame), per pass row, on 16x16 and 8x8
    //    planes.
    auto sigframe = [&](int64_t hw) {
        ConvSpec spec;
        spec.kernelH = spec.kernelW = 3;
        spec.pad = 1;
        const ConvFrame geometry(spec, hw, hw);
        const int64_t v = hw * hw;
        std::vector<float> frames(
            static_cast<size_t>(planes * geometry.size()));
        std::vector<float> plane(static_cast<size_t>(v));
        for (int64_t p = 0; p < planes; ++p) {
            for (float &x : plane)
                x = dist(rng);
            geometry.load(plane.data(), 1,
                          frames.data() + p * geometry.size());
        }
        const std::vector<int64_t> &taps = geometry.channelTaps();
        std::vector<uint64_t> sig(static_cast<size_t>(v));
        return run(static_cast<double>(planes) *
                       (geometry.size() * sizeof(float) +
                        v * sizeof(uint64_t)),
                   planes * v, [&](const kernels::KernelOps &k) {
                       for (int64_t p = 0; p < planes; ++p)
                           k.signFrame(frames.data() + p * geometry.size(),
                                       taps.data(), d_train,
                                       geometry.rowStep(), hw, 0, v,
                                       cols_train.data(),
                                       k.wantsInterleaved
                                           ? inter_train.data()
                                           : nullptr,
                                       stride_train, bits_train, 1,
                                       sig.data());
                       g_sink = static_cast<float>(sig[0] & 1u);
                   });
    };
    const Result sigframe16 = sigframe(16);
    const Result sigframe8 = sigframe(8);

    // 5) Span copy: coalesced HIT-row forwarding.
    const Result spancopy =
        run(2.0 * span * sizeof(float), span,
            [&](const kernels::KernelOps &k) {
                k.copySpan(dst.data(), src.data(), span);
                g_sink = dst[0];
            });

    // 6) The conv reuse passes' owner kernels at the training shapes:
    //    d 9 (3x3 channel patches, read from a pad-1 frame), 12 filters
    //    over 256-row passes (conv1-2, 16x16) and 24 over 64-row passes
    //    (conv3-4, 8x8), about half the rows owners. Cycles are per pass
    //    row.
    struct OwnerShape
    {
        int64_t filters, rows, hw;
    };
    const int64_t owner_passes = smoke ? 4 : 256;
    auto owner_kernels = [&](const OwnerShape &sh) {
        const int64_t v = sh.rows, f = sh.filters;
        std::vector<int32_t> owner(static_cast<size_t>(v));
        std::vector<int32_t> owners;
        for (int64_t i = 0; i < v; ++i) {
            owner[static_cast<size_t>(i)] = static_cast<int32_t>(i);
            if (!owners.empty() && rng() % 2)
                owner[static_cast<size_t>(i)] =
                    owners[rng() % owners.size()];
            else
                owners.push_back(static_cast<int32_t>(i));
        }
        const int64_t nown = static_cast<int64_t>(owners.size());
        std::vector<float> w(static_cast<size_t>(d_train * f));
        std::vector<float> vals(static_cast<size_t>(v * f));
        std::vector<float> out(static_cast<size_t>(f * v));
        std::vector<float> sums(static_cast<size_t>(nown * f));
        for (auto *vec : {&w, &vals, &out, &sums})
            for (float &x : *vec)
                x = dist(rng);
        // Both owner kernels that read patches read them from a pad-1
        // 3x3 frame: the forward by row (slots), dW by owner (base).
        const int64_t side = sh.hw + 2;
        std::vector<float> frame(static_cast<size_t>(side * side));
        for (float &x : frame)
            x = dist(rng);
        std::vector<int64_t> slots, base, taps;
        for (int64_t r = 0; r < v; ++r)
            slots.push_back(r / sh.hw * side + r % sh.hw);
        for (const int32_t r : owners)
            base.push_back(slots[static_cast<size_t>(r)]);
        for (int64_t t = 0; t < d_train; ++t)
            taps.push_back(t / 3 * side + t % 3);
        std::vector<float> acc(static_cast<size_t>(d_train * f), 0.0f);
        const int64_t per_rows = owner_passes * v;
        const double fl = sizeof(float);
        const Result values = run(
            static_cast<double>(owner_passes * nown) * (d_train + f) * fl,
            per_rows, [&](const kernels::KernelOps &k) {
                for (int64_t p = 0; p < owner_passes; ++p)
                    k.ownerValues(frame.data(), slots.data(), taps.data(),
                                  d_train, owners.data(), nown, w.data(), f,
                                  vals.data());
                g_sink = vals[0];
            });
        const Result scatter = run(
            static_cast<double>(per_rows) * 3 * f * fl, per_rows,
            [&](const kernels::KernelOps &k) {
                for (int64_t p = 0; p < owner_passes; ++p)
                    k.ownerScatter(vals.data(), f, f, owner.data(), v,
                                   out.data(), v);
                g_sink = out[0];
            });
        const Result dw = run(
            static_cast<double>(owner_passes * nown) * (d_train + f) * fl,
            per_rows, [&](const kernels::KernelOps &k) {
                for (int64_t p = 0; p < owner_passes; ++p)
                    k.ownerWeightMul(sums.data(), f, nown, frame.data(),
                                     base.data(), taps.data(), d_train,
                                     acc.data());
                g_sink = acc[0];
            });
        // The dX replay's gather of every filter's output gradients
        // through the owner map into the pad-1 gradient frames, one
        // call per pass (ConvGradFrame::load).
        std::vector<float> go(static_cast<size_t>(f * v));
        for (float &x : go)
            x = dist(rng);
        std::vector<float> gframes(static_cast<size_t>(f * side * side));
        const Result gather = run(
            static_cast<double>(per_rows) * 2 * f * fl, per_rows,
            [&](const kernels::KernelOps &k) {
                for (int64_t p = 0; p < owner_passes; ++p)
                    k.gatherSpan(gframes.data() + side + 1, side,
                                 side * side, go.data(), v, owner.data(),
                                 sh.hw, sh.hw, sh.hw, f);
                g_sink = gframes[static_cast<size_t>(side + 1)];
            });
        // The dW replay's hit-group sums over the (position, filter)
        // gradients, one call per pass.
        std::vector<int32_t> scratch(static_cast<size_t>(2 * v));
        const Result group = run(
            static_cast<double>(per_rows) * 2 * f * fl, per_rows,
            [&](const kernels::KernelOps &k) {
                for (int64_t p = 0; p < owner_passes; ++p)
                    k.groupSums(go.data(), f, owner.data(), v,
                                scratch.data(), sums.data());
                g_sink = sums[0];
            });
        return std::array<Result, 5>{values, scatter, dw, gather, group};
    };
    const std::array<Result, 5> own12 = owner_kernels({12, 256, 16});
    const std::array<Result, 5> own24 = owner_kernels({24, 64, 8});

    // 7) The exact conv ops' bodies at the same two shapes (3x3, pad
    //    1: 12 -> 12 channels on 16x16, 24 -> 24 on 8x8): the forward
    //    tile, the input gradient as convForward over the gradient
    //    frames with flipped kernels (one call over every input channel,
    //    as conv2dBackwardInput makes it, and one call per channel, the
    //    dX replay's), and the weight gradient as ownerWeightMul with
    //    every position an owner. Cycles are per pass row — one output
    //    position of one input channel, the unit of the owner keys — so
    //    each exact key reads against the reuse pass's owner keys at its
    //    shape.
    const int64_t exact_images = smoke ? 2 : 64;
    auto exact_kernels = [&](int64_t channels, int64_t hw) {
        ConvSpec spec;
        spec.inChannels = spec.outChannels = channels;
        spec.kernelH = spec.kernelW = 3;
        spec.pad = 1;
        const ConvFrame frame(spec, hw, hw);
        const ConvGradFrame gframe(spec, hw, hw);
        const int64_t c = channels, v = hw * hw;
        std::vector<float> plane(static_cast<size_t>(c * v));
        std::vector<float> go(plane.size());
        std::vector<float> w(static_cast<size_t>(c * c * 9));
        std::vector<float> bias(static_cast<size_t>(c));
        for (auto *vec : {&plane, &go, &w, &bias})
            for (float &x : *vec)
                x = dist(rng);
        std::vector<float> frames(static_cast<size_t>(c * frame.size()));
        frame.load(plane.data(), c, frames.data());
        std::vector<float> gframes(static_cast<size_t>(c * gframe.size()));
        gframe.load(go.data(), c, nullptr, gframes.data());
        Tensor weight({c, c, 3, 3});
        std::copy(w.begin(), w.end(), weight.data());
        std::vector<float> flipped(static_cast<size_t>(weight.numel()));
        gframe.flipKernels(weight, flipped.data());
        const std::vector<int64_t> &gtaps = gframe.taps();
        const int64_t ntaps = static_cast<int64_t>(gtaps.size());
        const std::vector<int64_t> tap_off = frame.tapOffsets(c);
        const std::vector<int64_t> base = frame.positionSlots();
        const int64_t taps = static_cast<int64_t>(tap_off.size());
        std::vector<float> go_t(go.size());
        for (int64_t f = 0; f < c; ++f)
            for (int64_t r = 0; r < v; ++r)
                go_t[static_cast<size_t>(r * c + f)] =
                    go[static_cast<size_t>(f * v + r)];
        std::vector<float> out(plane.size()), gin(plane.size());
        std::vector<float> acc(static_cast<size_t>(taps * c), 0.0f);
        const int64_t per_rows = exact_images * v * c;
        const double bytes =
            static_cast<double>(exact_images) *
            static_cast<double>(c * (frame.size() + v)) * sizeof(float);
        const Result fwd = run(bytes, per_rows, [&](const kernels::KernelOps &k) {
            for (int64_t i = 0; i < exact_images; ++i)
                k.convForward(frames.data(), tap_off.data(), taps,
                              frame.rowStep(), w.data(), bias.data(), c, hw,
                              hw, out.data(), v);
            g_sink = out[0];
        });
        const Result dx = run(bytes, per_rows, [&](const kernels::KernelOps &k) {
            for (int64_t i = 0; i < exact_images; ++i)
                k.convForward(gframes.data(), gtaps.data(), ntaps,
                              gframe.pitch(), flipped.data(), nullptr, c, hw,
                              hw, gin.data(), v);
            g_sink = gin[0];
        });
        const Result replay_dx =
            run(bytes, per_rows, [&](const kernels::KernelOps &k) {
                for (int64_t i = 0; i < exact_images; ++i)
                    for (int64_t ic = 0; ic < c; ++ic)
                        k.convForward(gframes.data(), gtaps.data(), ntaps,
                                      gframe.pitch(),
                                      flipped.data() + ic * ntaps, nullptr, 1,
                                      hw, hw, gin.data() + ic * v, v);
                g_sink = gin[0];
            });
        const Result dw = run(bytes, per_rows, [&](const kernels::KernelOps &k) {
            for (int64_t i = 0; i < exact_images; ++i)
                k.ownerWeightMul(go_t.data(), c, v, frames.data(),
                                 base.data(), tap_off.data(), taps,
                                 acc.data());
            g_sink = acc[0];
        });
        return std::array<Result, 4>{fwd, dx, dw, replay_dx};
    };
    const std::array<Result, 4> exact12 = exact_kernels(12, 16);
    const std::array<Result, 4> exact24 = exact_kernels(24, 8);

    // 8) The exact step's glue, one body each, at the four conv shapes
    //    of perfbench's vgg13 workloads (3x3, pad 1; conv1 3->12 and
    //    conv2 12->12 on 16x16, conv3 12->24 and conv4 24->24 on 8x8),
    //    one image per call: pool forward and backward and ReLU forward
    //    and backward on the conv's output, the frame load of its
    //    input, and its output gradient transposed to (position,
    //    filter) and summed into the bias. A rep walks 64 distinct
    //    seeded images, one call each, so no branch predictor learns
    //    one input (a pool timed on one repeated input once read about
    //    a sixth of its in-situ cycles). Cycles are per row: one
    //    element of the conv-shaped operand (the pool and ReLU input,
    //    the loaded plane, the gradient).
    struct GlueShape
    {
        const char *name;
        int64_t cin, cout, hw;
    };
    const GlueShape glue_shapes[] = {{"conv1", 3, 12, 16},
                                     {"conv2", 12, 12, 16},
                                     {"conv3", 12, 24, 8},
                                     {"conv4", 24, 24, 8}};
    constexpr int64_t kGlueImages = 64;
    const char *const glue_ops[] = {"pool_fwd",   "pool_bwd",
                                    "relu_fwd",   "relu_bwd",
                                    "frame_load", "go_transpose",
                                    "bias"};
    constexpr size_t kGlueOps = sizeof(glue_ops) / sizeof(glue_ops[0]);
    std::normal_distribution<float> normal(0.0f, 1.0f);
    auto glue_kernels = [&](const GlueShape &sh) {
        ConvSpec spec;
        spec.inChannels = sh.cin;
        spec.outChannels = sh.cout;
        spec.kernelH = spec.kernelW = 3;
        spec.pad = 1;
        const ConvFrame frame(spec, sh.hw, sh.hw);
        auto images = [&](int64_t c, int64_t hw, bool relu) {
            std::vector<Tensor> t;
            for (int64_t i = 0; i < kGlueImages; ++i) {
                Tensor x({1, c, hw, hw});
                for (int64_t e = 0; e < x.numel(); ++e)
                    x[e] = relu ? std::max(0.0f, normal(rng)) : normal(rng);
                t.push_back(std::move(x));
            }
            return t;
        };
        // The pool reads ReLU'd conv outputs, as in the network, so its
        // windows hold the zeros and ties the trained step sees.
        const std::vector<Tensor> act = images(sh.cout, sh.hw, false);
        const std::vector<Tensor> pool_in = images(sh.cout, sh.hw, true);
        const std::vector<Tensor> grad = images(sh.cout, sh.hw, false);
        const std::vector<Tensor> pool_grad =
            images(sh.cout, sh.hw / 2, false);
        const std::vector<Tensor> input = images(sh.cin, sh.hw, false);
        std::vector<std::vector<int32_t>> argmax(kGlueImages);
        for (int64_t i = 0; i < kGlueImages; ++i)
            maxPool2x2Forward(pool_in[static_cast<size_t>(i)],
                              argmax[static_cast<size_t>(i)]);
        std::vector<float> frames(static_cast<size_t>(sh.cin * frame.size()));
        const int64_t out_rows = kGlueImages * sh.cout * sh.hw * sh.hw;
        const int64_t in_rows = kGlueImages * sh.cin * sh.hw * sh.hw;
        auto glue = [&](int64_t rows, auto &&call) {
            const Meas m = measure([&] {
                for (size_t i = 0; i < kGlueImages; ++i)
                    call(i);
            });
            return m.cycles / static_cast<double>(rows);
        };
        std::array<double, kGlueOps> r{};
        r[0] = glue(out_rows, [&](size_t i) {
            std::vector<int32_t> am;
            g_sink = maxPool2x2Forward(pool_in[i], am)[0];
        });
        r[1] = glue(out_rows, [&](size_t i) {
            g_sink = maxPool2x2Backward(pool_in[i].shape(), pool_grad[i],
                                        argmax[i])[0];
        });
        r[2] = glue(out_rows,
                    [&](size_t i) { g_sink = reluForward(act[i])[0]; });
        r[3] = glue(out_rows, [&](size_t i) {
            g_sink = reluBackward(act[i], grad[i])[0];
        });
        r[4] = glue(in_rows, [&](size_t i) {
            frame.load(input[i].data(), sh.cin, frames.data());
            g_sink = frames[static_cast<size_t>(frame.size() / 2)];
        });
        r[5] = glue(out_rows, [&](size_t i) {
            g_sink = gradOutByPosition(grad[i], 1)[0];
        });
        r[6] = glue(out_rows,
                    [&](size_t i) { g_sink = conv2dBackwardBias(grad[i])[0]; });
        return r;
    };
    std::vector<std::array<double, kGlueOps>> glue_cpr;
    for (const GlueShape &sh : glue_shapes)
        glue_cpr.push_back(glue_kernels(sh));

    Table t("kernel bodies (best-of-reps)");
    t.header({"kernel", "scalar cyc/row", "avx2 cyc/row", "speedup",
              "GB/s"});
    auto row = [&](const char *name, const Result &r) {
        t.row({name,
               std::isnan(r.cpr_scalar) ? std::string("-")
                                        : Table::num(r.cpr_scalar, 1),
               std::isnan(r.cpr_avx2) ? std::string("-")
                                      : Table::num(r.cpr_avx2, 1),
               std::isnan(r.speedup) ? std::string("-")
                                     : Table::num(r.speedup, 2),
               Table::num(r.gbps, 2)});
    };
    row("rpq_project", project);
    row("sign_pack", sigpack);
    row("rpq_project d9/28b/s64", project_train);
    row("sign_pack 28b", sigpack_train);
    row("sig_frame k3 16x16 28b", sigframe16);
    row("sig_frame k3 8x8 28b", sigframe8);
    row("owner_values f12 r256", own12[0]);
    row("owner_scatter f12 r256", own12[1]);
    row("owner_dw f12 r256", own12[2]);
    row("owner_gather f12 r256", own12[3]);
    row("group_sums f12 r256", own12[4]);
    row("owner_values f24 r64", own24[0]);
    row("owner_scatter f24 r64", own24[1]);
    row("owner_dw f24 r64", own24[2]);
    row("group_sums f24 r64", own24[4]);
    row("exact_fwd 12->12 16x16", exact12[0]);
    row("exact_dx 12->12 16x16", exact12[1]);
    row("exact_dw 12->12 16x16", exact12[2]);
    row("replay_dx 12->12 16x16", exact12[3]);
    row("exact_fwd 24->24 8x8", exact24[0]);
    row("exact_dx 24->24 8x8", exact24[1]);
    row("exact_dw 24->24 8x8", exact24[2]);
    row("replay_dx 24->24 8x8", exact24[3]);
    row("span_copy", spancopy);
    t.print();

    Table gt("exact-step glue ops, one body (best-of-reps cycles per row)");
    gt.header({"op", "conv1 3->12 16x16", "conv2 12->12 16x16",
               "conv3 12->24 8x8", "conv4 24->24 8x8"});
    for (size_t op = 0; op < kGlueOps; ++op) {
        std::vector<std::string> cells = {glue_ops[op]};
        for (const auto &r : glue_cpr)
            cells.push_back(std::isnan(r[op]) ? std::string("-")
                                              : Table::num(r[op], 2));
        gt.row(cells);
    }
    gt.print();

    bench::ResultLine line("BENCH_kernels.json", "micro_kernels");
    line.num("project_scalar_cycles_per_row", project.cpr_scalar, 1)
        .num("project_avx2_cycles_per_row", project.cpr_avx2, 1)
        .num("project_speedup", project.speedup, 3)
        .num("project_gbps", project.gbps, 3)
        .num("sigpack_scalar_cycles_per_row", sigpack.cpr_scalar, 1)
        .num("sigpack_avx2_cycles_per_row", sigpack.cpr_avx2, 1)
        .num("sigpack_speedup", sigpack.speedup, 3)
        .num("sigpack_gbps", sigpack.gbps, 3)
        .num("project_d9b28_scalar_cycles_per_row",
             project_train.cpr_scalar, 1)
        .num("project_d9b28_avx2_cycles_per_row", project_train.cpr_avx2,
             1)
        .num("sigpack_b28_scalar_cycles_per_row", sigpack_train.cpr_scalar,
             1)
        .num("sigpack_b28_avx2_cycles_per_row", sigpack_train.cpr_avx2, 1)
        .num("sigframe_16x16_b28_scalar_cycles_per_row",
             sigframe16.cpr_scalar, 1)
        .num("sigframe_16x16_b28_avx2_cycles_per_row", sigframe16.cpr_avx2,
             1)
        .num("sigframe_8x8_b28_scalar_cycles_per_row", sigframe8.cpr_scalar,
             1)
        .num("sigframe_8x8_b28_avx2_cycles_per_row", sigframe8.cpr_avx2, 1)
        .num("owner_values_f12_scalar_cycles_per_row", own12[0].cpr_scalar,
             1)
        .num("owner_values_f12_avx2_cycles_per_row", own12[0].cpr_avx2, 1)
        .num("owner_scatter_f12_scalar_cycles_per_row",
             own12[1].cpr_scalar, 1)
        .num("owner_scatter_f12_avx2_cycles_per_row", own12[1].cpr_avx2, 1)
        .num("owner_dw_f12_scalar_cycles_per_row", own12[2].cpr_scalar, 1)
        .num("owner_dw_f12_avx2_cycles_per_row", own12[2].cpr_avx2, 1)
        .num("owner_gather_f12_scalar_cycles_per_row", own12[3].cpr_scalar,
             1)
        .num("owner_gather_f12_avx2_cycles_per_row", own12[3].cpr_avx2, 1)
        .num("group_sums_f12_scalar_cycles_per_row", own12[4].cpr_scalar, 1)
        .num("group_sums_f12_avx2_cycles_per_row", own12[4].cpr_avx2, 1)
        .num("owner_values_f24_scalar_cycles_per_row", own24[0].cpr_scalar,
             1)
        .num("owner_values_f24_avx2_cycles_per_row", own24[0].cpr_avx2, 1)
        .num("owner_scatter_f24_scalar_cycles_per_row",
             own24[1].cpr_scalar, 1)
        .num("owner_scatter_f24_avx2_cycles_per_row", own24[1].cpr_avx2, 1)
        .num("owner_dw_f24_scalar_cycles_per_row", own24[2].cpr_scalar, 1)
        .num("owner_dw_f24_avx2_cycles_per_row", own24[2].cpr_avx2, 1)
        .num("group_sums_f24_scalar_cycles_per_row", own24[4].cpr_scalar, 1)
        .num("group_sums_f24_avx2_cycles_per_row", own24[4].cpr_avx2, 1)
        .num("exact_fwd_f12_scalar_cycles_per_row", exact12[0].cpr_scalar, 1)
        .num("exact_fwd_f12_avx2_cycles_per_row", exact12[0].cpr_avx2, 1)
        .num("exact_dx_f12_scalar_cycles_per_row", exact12[1].cpr_scalar, 1)
        .num("exact_dx_f12_avx2_cycles_per_row", exact12[1].cpr_avx2, 1)
        .num("exact_dw_f12_scalar_cycles_per_row", exact12[2].cpr_scalar, 1)
        .num("exact_dw_f12_avx2_cycles_per_row", exact12[2].cpr_avx2, 1)
        .num("exact_fwd_f24_scalar_cycles_per_row", exact24[0].cpr_scalar, 1)
        .num("exact_fwd_f24_avx2_cycles_per_row", exact24[0].cpr_avx2, 1)
        .num("exact_dx_f24_scalar_cycles_per_row", exact24[1].cpr_scalar, 1)
        .num("exact_dx_f24_avx2_cycles_per_row", exact24[1].cpr_avx2, 1)
        .num("exact_dw_f24_scalar_cycles_per_row", exact24[2].cpr_scalar, 1)
        .num("exact_dw_f24_avx2_cycles_per_row", exact24[2].cpr_avx2, 1)
        .num("replay_dx_f12_scalar_cycles_per_row", exact12[3].cpr_scalar, 1)
        .num("replay_dx_f12_avx2_cycles_per_row", exact12[3].cpr_avx2, 1)
        .num("replay_dx_f24_scalar_cycles_per_row", exact24[3].cpr_scalar, 1)
        .num("replay_dx_f24_avx2_cycles_per_row", exact24[3].cpr_avx2, 1)
        ;
    for (size_t op = 0; op < kGlueOps; ++op)
        for (size_t sh = 0; sh < glue_cpr.size(); ++sh)
            line.num("glue_" + std::string(glue_ops[op]) + "_" +
                         glue_shapes[sh].name + "_cycles_per_row",
                     glue_cpr[sh][op], 2);
    line
        // The span copy is memory-bound: scalar-vs-AVX2 speedup there
        // is timer noise around 1.0, so only GB/s is recorded (and
        // gated) for it.
        .num("spancopy_gbps", spancopy.gbps, 3)
        .config("cpu", ax ? "avx2" : "scalar")
        .config("rows", nrows)
        .config("d", d)
        .config("bits", bits)
        .config("train_shape", "d9 bits28 stride64; frames k3 pad1, "
                               "16x16 and 8x8")
        .config("owner_shapes", "d9 from pad-1 frames, f12 over 256 rows, "
                                "f24 over 64 rows, half the rows owners")
        .config("exact_shapes", "k3 pad1, f12: 12->12 on 16x16, f24: "
                                "24->24 on 8x8, per pass row")
        .config("glue_shapes", "vgg13 conv1-4, one image per call, 64 "
                               "images per rep, per operand element")
        .config("span", span);
    bench::stdConfig(line);
    line.print();
    return 0;
}
