/**
 * @file
 * Per-kernel microbenchmark for the runtime-dispatched SIMD layer:
 * times each KernelOps body (scalar vs AVX2 when the host has it) on
 * RPQ-shaped blocks and reports cycles-per-row and GB/s, emitting one
 * BENCH_kernels.json line that tools/check_bench.py gates.
 *
 * Cycles come from the TSC where the target has one (x86); on other
 * targets the cycle columns print as null and only GB/s is gated.
 */

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
    // 64, so the last 4 filters are a partial octet; the patches come
    // from 16x16 planes with pad 1.
    const int64_t d_train = 9;
    const int bits_train = 28;
    const int stride_train = 64;
    const int64_t plane_hw = 16;
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
    std::vector<float> planes_in(
        static_cast<size_t>(planes * plane_hw * plane_hw));
    for (float &v : planes_in)
        v = dist(rng);
    const int64_t patch_rows = plane_hw * plane_hw; // pad 1: ow == w
    std::vector<float> patches(static_cast<size_t>(patch_rows * d_train));

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

    // 4) Patch extraction: 3x3 pad-1 patches of 16x16 planes, the
    //    fused detection blocks' and the dW replay's row producer.
    const Result extract = run(
        static_cast<double>(planes * patch_rows) *
            (d_train + 1) * sizeof(float),
        planes * patch_rows, [&](const kernels::KernelOps &k) {
            for (int64_t p = 0; p < planes; ++p)
                k.extractPatches(planes_in.data() +
                                     p * plane_hw * plane_hw,
                                 plane_hw, plane_hw, plane_hw, 1, 1, 3, 0,
                                 patch_rows, patches.data());
            g_sink = patches[0];
        });

    // 5) Span copy: coalesced HIT-row forwarding.
    const Result spancopy =
        run(2.0 * span * sizeof(float), span,
            [&](const kernels::KernelOps &k) {
                k.copySpan(dst.data(), src.data(), span);
                g_sink = dst[0];
            });

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
    row("extract k3 16x16", extract);
    row("span_copy", spancopy);
    t.print();

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
        .num("extract_k3_scalar_cycles_per_row", extract.cpr_scalar, 1)
        .num("extract_k3_avx2_cycles_per_row", extract.cpr_avx2, 1)
        // The span copy is memory-bound: scalar-vs-AVX2 speedup there
        // is timer noise around 1.0, so only GB/s is recorded (and
        // gated) for it.
        .num("spancopy_gbps", spancopy.gbps, 3)
        .config("cpu", ax ? "avx2" : "scalar")
        .config("rows", nrows)
        .config("d", d)
        .config("bits", bits)
        .config("train_shape", "d9 bits28 stride64, k3 16x16 pad1")
        .config("span", span);
    bench::stdConfig(line);
    line.print();
    return 0;
}
