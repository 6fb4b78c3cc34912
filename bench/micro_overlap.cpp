/**
 * @file
 * Microbenchmark of the reuse passes' one schedule on a VGG13-sized
 * conv layer, next to the paper's Fig. 8 overlap in the timing model.
 *
 *  1. Functional wall time: ConvReuseEngine forward on a threads-1
 *     frontend (hash and probe block by block, then compute and
 *     scatter, inline) and on a pooled one (later blocks hash on the
 *     pool while the driving thread probes, and the next channel
 *     hashes under this one's computes and scatter). Outputs are
 *     verified bit-identical first. `wall_speedup` is the threads-1
 *     forward over the pooled one; the pooled forward is also timed
 *     against the exact conv2dForward (wall_forward_speedup).
 *
 *  2. Modeled accelerator cycles (the paper's Fig. 8 metric): the
 *     row-stationary timing model with `overlapDetection` off vs on,
 *     where overlap hides signature generation under PE compute.
 *     This is deterministic and host-independent.
 *
 *  3. The backward column (§III-C2): the input-gradient pass with
 *     `backwardReuse` replaying the forward-captured SignatureRecord
 *     — functional wall time of the replayed ConvReuseEngine
 *     backward on the pooled frontend (the channel passes fan out
 *     over the pool) vs the exact conv2dBackwardInput, and the
 *     modeled backward layer cycles (replay-only signature charge) vs
 *     the no-reuse backward baseline.
 *
 *  4. The dW column (§III-C2 on Eq. 1): the weight-gradient pass
 *     with `weightGradReuse` replaying the same record by
 *     sum-then-multiply — functional wall time of the pooled
 *     ConvReuseEngine::backwardWeights (channels fanned out over the
 *     pool) vs the exact conv2dBackwardWeight, and the modeled
 *     dW layer cycles
 *     (owner-only multiplies + per-group accumulates + replay-only
 *     signature charge) vs the no-reuse dW baseline. This closes the
 *     last third of training-cycle MACs: forward, dX, and dW all
 *     ride one captured detection pass.
 *
 * Both replays are checked bit-identical to the threads-1 frontend's
 * before they are timed; a divergence fails the bench. Every wall
 * column prints its fastest and its median repetition to 0.001 ms,
 * in the tables and in the summary line (`wall_*_ms` and
 * `wall_*_median_ms`; wall keys are never gated).
 *
 * Emits a BENCH_overlap.json summary line in the shared result
 * schema. MERCURY_BENCH_SMOKE=1 shrinks the layer and repetition
 * counts for the CI smoke run; MERCURY_BENCH_REPS=N caps repetitions
 * for the CI wall-clock step; MERCURY_BENCH_THREADS=N pins the pooled
 * frontend's thread count.
 */

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/conv_reuse_engine.hpp"
#include "sim/dataflow.hpp"
#include "sim/layer_shape.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace mercury;

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kVersions = 4;
constexpr int kBits = 16;
constexpr uint64_t kSeed = 23;

} // namespace

int
main()
{
    using namespace mercury;
    const bool smoke = bench::smoke();

    // VGG13 conv3-level layer at CIFAR scale: 64 -> 64 channels of
    // 32x32, 3x3 kernels. Big enough that a channel pass has 1024
    // vectors; small enough for a quick functional run. Smoke mode
    // shrinks it to an 8-channel 8x8 toy so CI just exercises the
    // code paths.
    const int64_t kChannels = smoke ? 8 : 64;
    const int64_t kFilters = smoke ? 8 : 64;
    const int64_t kHw = smoke ? 8 : 32;

    const int env_threads = bench::benchThreads();
    const int threads = env_threads
                            ? ThreadPool::resolveThreads(env_threads)
                            : std::max(4, ThreadPool::resolveThreads(0));
    std::printf("micro_overlap: the reuse passes on one thread and on "
                "the pool, on a VGG13-sized conv layer\n");
    std::printf("(layer: %lld ch -> %lld filters, %lldx%lld, 3x3; "
                "MCACHE %dx%d, %d versions; threads %d on %d hw)\n\n",
                static_cast<long long>(kChannels),
                static_cast<long long>(kFilters),
                static_cast<long long>(kHw), static_cast<long long>(kHw),
                kSets, kWays, kVersions, threads,
                ThreadPool::resolveThreads(0));

    Dataset ds = makeImageDataset(1, 2, kChannels, kHw, kSeed, 0.02f);
    Rng rng(kSeed);
    Tensor w({kFilters, kChannels, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = static_cast<int>(kChannels);
    spec.outChannels = static_cast<int>(kFilters);
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;

    // The pooled frontend gets at least 4 threads unless pinned, so
    // the hashing actually runs beside the driving thread on small
    // hosts; the threads-1 frontend is the reference schedule.
    PipelineConfig single_pipe;
    single_pipe.blockRows = 128;
    PipelineConfig pooled_pipe = single_pipe;
    pooled_pipe.threads = threads;

    // --- 1. Functional wall time -----------------------------------
    DetectionFrontend single_fe(kSets, kWays, kVersions, kBits, kSeed,
                                single_pipe);
    ConvReuseEngine single(single_fe, kBits);
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, kBits, kSeed,
                                pooled_pipe);
    ConvReuseEngine pooled(pooled_fe, kBits);

    // Identity first: both frontends must produce the same layer.
    ReuseStats s_stats, p_stats;
    const Tensor s_out =
        single.forward(ds.inputs, w, Tensor(), spec, s_stats);
    const Tensor p_out =
        pooled.forward(ds.inputs, w, Tensor(), spec, p_stats);
    if (!(s_out == p_out) || s_stats.macsSkipped != p_stats.macsSkipped) {
        std::fprintf(stderr, "FATAL: pooled conv forward diverges from "
                             "the threads-1 run\n");
        return 1;
    }

    ReuseStats scratch;
    const bench::WallTime w_single = bench::wallSeconds(
        [&] { single.forward(ds.inputs, w, Tensor(), spec, scratch); },
        1.0);
    const bench::WallTime w_pooled = bench::wallSeconds(
        [&] { pooled.forward(ds.inputs, w, Tensor(), spec, scratch); },
        1.0);
    const double t_single = w_single.best;
    const double t_pooled = w_pooled.best;
    const double wall_speedup = t_single / t_pooled;
    // The fair forward baseline: the exact (vectorized, bit-identical)
    // conv2dForward against the pooled engine's forward.
    const bench::WallTime w_fwd_exact = bench::wallSeconds(
        [&] { conv2dForward(ds.inputs, w, Tensor(), spec); }, 1.0);
    const double wall_fwd_speedup = w_fwd_exact.best / t_pooled;

    Table wall("functional layer time (one image, all channels)");
    wall.header({"mode", "min-ms", "median-ms", "hit-frac",
                 "macs-skipped"});
    wall.row({"exact conv2dForward", Table::num(w_fwd_exact.best * 1e3, 3),
              Table::num(w_fwd_exact.median * 1e3, 3), "-", "0"});
    wall.row({"reuse, 1 thread", Table::num(t_single * 1e3, 3),
              Table::num(w_single.median * 1e3, 3),
              Table::num(s_stats.mix.hitFraction(), 3),
              std::to_string(s_stats.macsSkipped)});
    wall.row({"reuse, " + std::to_string(threads) + " threads",
              Table::num(t_pooled * 1e3, 3),
              Table::num(w_pooled.median * 1e3, 3),
              Table::num(p_stats.mix.hitFraction(), 3),
              std::to_string(p_stats.macsSkipped)});
    wall.print();
    std::printf("wall-clock speedup of the pool: %.2fx (needs spare "
                "cores; this host has %d hardware threads)\n",
                wall_speedup, ThreadPool::resolveThreads(0));
    std::printf("forward vs exact conv2dForward: %.2fx\n\n",
                wall_fwd_speedup);

    // --- 2. Modeled accelerator cycles (Fig. 8) --------------------
    // The modeled view accounts the ACCELERATOR, where Fig. 8 overlap
    // is hardware: deterministic and host-independent.
    AcceleratorConfig cfg;
    AcceleratorConfig overlap_cfg;
    overlap_cfg.overlapDetection = true;
    const auto serial_model = sim::CostModel::create(cfg);
    const auto overlap_model = sim::CostModel::create(overlap_cfg);
    const LayerShape shape = LayerShape::conv(
        "vgg13-conv", kChannels, kFilters, kHw, kHw, 3);
    const HitMix mix = s_stats.mix; // the measured channel mix

    const LayerCycles sc = serial_model->layerCost(shape, 1, mix, kBits);
    const LayerCycles oc = overlap_model->layerCost(shape, 1, mix, kBits);
    const double model_speedup =
        static_cast<double>(sc.mercuryTotal()) /
        static_cast<double>(oc.mercuryTotal());

    Table model("modeled layer cycles (row-stationary, measured mix)");
    model.header({"mode", "compute", "signature", "cache", "total",
                  "vs-baseline"});
    model.row({"serial detection", std::to_string(sc.computation),
               std::to_string(sc.signature),
               std::to_string(sc.cacheOverhead),
               std::to_string(sc.mercuryTotal()),
               Table::num(sc.speedup(), 2) + "x"});
    model.row({"overlapped (Fig. 8)", std::to_string(oc.computation),
               std::to_string(oc.signature),
               std::to_string(oc.cacheOverhead),
               std::to_string(oc.mercuryTotal()),
               Table::num(oc.speedup(), 2) + "x"});
    model.print();
    std::printf("modeled layer-time speedup from overlap: %.3fx "
                "(signature cycles hidden: %llu of %llu)\n\n",
                model_speedup,
                static_cast<unsigned long long>(sc.signature -
                                                oc.signature),
                static_cast<unsigned long long>(sc.signature));

    // --- 3. Backward column: signature replay (§III-C2) ------------
    // Functional: the replayed input-gradient pass consumes the
    // record the forward pass captured — no second detection — and
    // forward-HIT rows reuse their owner's products. Wall time is
    // compared against the exact conv2dBackwardInput.
    SignatureRecord record;
    ReuseStats cap_stats;
    single.forward(ds.inputs, w, Tensor(), spec, cap_stats, &record);
    Rng grng(kSeed + 1);
    Tensor grad({1, kFilters, kHw, kHw});
    grad.fillNormal(grng);

    ReuseStats b_stats, pb_stats;
    const Tensor s_gin =
        single.backwardInput(grad, w, spec, kHw, kHw, record, b_stats);
    const Tensor p_gin =
        pooled.backwardInput(grad, w, spec, kHw, kHw, record, pb_stats);
    if (!(s_gin == p_gin) || b_stats.macsSkipped != pb_stats.macsSkipped) {
        std::fprintf(stderr, "FATAL: pooled dX replay diverges from the "
                             "threads-1 run\n");
        return 1;
    }
    const bench::WallTime w_bwd_exact = bench::wallSeconds(
        [&] { conv2dBackwardInput(grad, w, spec, kHw, kHw); }, 1.0);
    const bench::WallTime w_bwd_replay = bench::wallSeconds(
        [&] {
            ReuseStats s;
            pooled.backwardInput(grad, w, spec, kHw, kHw, record, s);
        },
        1.0);
    const double t_bwd_exact = w_bwd_exact.best;
    const double t_bwd_replay = w_bwd_replay.best;
    const double wall_bwd_speedup = t_bwd_exact / t_bwd_replay;

    // Modeled: input-gradient pass without reuse (baseline backward)
    // vs with the replayed signatures (backwardReuse) — the Fig. 8
    // accounting extended to the backward pass: compute shrinks by
    // the forward hit fraction, the signature charge is replay-only.
    AcceleratorConfig bwd_cfg;
    bwd_cfg.backwardReuse = true;
    const auto bwd_model = sim::CostModel::create(bwd_cfg);
    const LayerCycles bb =
        serial_model->backwardCost(shape, 1, mix, kBits);
    const LayerCycles br = bwd_model->backwardCost(shape, 1, mix, kBits);
    const double model_bwd_speedup =
        static_cast<double>(bb.mercuryTotal()) /
        static_cast<double>(br.mercuryTotal());

    Table bwd("backward input-gradient pass (replayed signatures)");
    bwd.header({"mode", "compute", "signature", "total", "min-ms",
                "median-ms", "macs-skipped"});
    bwd.row({"exact backward", std::to_string(bb.computation),
             std::to_string(bb.signature),
             std::to_string(bb.mercuryTotal()),
             Table::num(t_bwd_exact * 1e3, 3),
             Table::num(w_bwd_exact.median * 1e3, 3), "0"});
    bwd.row({"replayed (§III-C2)", std::to_string(br.computation),
             std::to_string(br.signature),
             std::to_string(br.mercuryTotal()),
             Table::num(t_bwd_replay * 1e3, 3),
             Table::num(w_bwd_replay.median * 1e3, 3),
             std::to_string(b_stats.macsSkipped)});
    bwd.print();
    std::printf("modeled backward layer-time speedup from replay: "
                "%.3fx (hit fraction %.3f, replay charge %llu "
                "cycles)\n\n",
                model_bwd_speedup, b_stats.mix.hitFraction(),
                static_cast<unsigned long long>(br.signature));

    // --- 4. dW column: weight-gradient replay (§III-C2, Eq. 1) -----
    // Functional: dW by sum-then-multiply over the captured record —
    // the output gradients of each forward hit-group are summed, then
    // one multiply runs per group through the owner's patch. Wall
    // time vs the exact conv2dBackwardWeight.
    ReuseStats dw_stats, pdw_stats;
    const Tensor s_dw =
        single.backwardWeights(ds.inputs, grad, spec, record, dw_stats);
    const Tensor p_dw =
        pooled.backwardWeights(ds.inputs, grad, spec, record, pdw_stats);
    if (!(s_dw == p_dw) || dw_stats.macsSkipped != pdw_stats.macsSkipped) {
        std::fprintf(stderr, "FATAL: pooled dW replay diverges from the "
                             "threads-1 run\n");
        return 1;
    }
    const bench::WallTime w_dw_exact = bench::wallSeconds(
        [&] { conv2dBackwardWeight(ds.inputs, grad, spec); }, 1.0);
    const bench::WallTime w_dw_replay = bench::wallSeconds(
        [&] {
            ReuseStats s;
            pooled.backwardWeights(ds.inputs, grad, spec, record, s);
        },
        1.0);
    const double t_dw_exact = w_dw_exact.best;
    const double t_dw_replay = w_dw_replay.best;
    const double wall_dw_speedup = t_dw_exact / t_dw_replay;

    // Modeled: the dW pass without reuse (baseline cost — dW mirrors
    // the forward MAC structure) vs with the replayed record
    // (weightGradReuse): owner-only multiplies, per-group accumulate
    // adds, replay-only signature charge.
    AcceleratorConfig dw_cfg;
    dw_cfg.weightGradReuse = true;
    const LayerCycles wb =
        serial_model->weightGradCost(shape, 1, mix, kBits);
    const LayerCycles wr =
        sim::CostModel::create(dw_cfg)->weightGradCost(shape, 1, mix,
                                                       kBits);
    const double model_dw_speedup =
        static_cast<double>(wb.mercuryTotal()) /
        static_cast<double>(wr.mercuryTotal());
    if (!smoke && model_dw_speedup <= 1.5) {
        std::fprintf(stderr,
                     "FATAL: modeled dW speedup %.3fx at the %.3f-hit "
                     "point fell to or below the 1.5x acceptance bar\n",
                     model_dw_speedup, mix.hitFraction());
        return 1;
    }

    Table dw("weight-gradient dW pass (replayed record, "
             "sum-then-multiply)");
    dw.header({"mode", "compute", "signature", "total", "min-ms",
               "median-ms", "macs-skipped"});
    dw.row({"exact dW", std::to_string(wb.computation),
            std::to_string(wb.signature),
            std::to_string(wb.mercuryTotal()),
            Table::num(t_dw_exact * 1e3, 3),
            Table::num(w_dw_exact.median * 1e3, 3), "0"});
    dw.row({"replayed (§III-C2)", std::to_string(wr.computation),
            std::to_string(wr.signature),
            std::to_string(wr.mercuryTotal()),
            Table::num(t_dw_replay * 1e3, 3),
            Table::num(w_dw_replay.median * 1e3, 3),
            std::to_string(dw_stats.macsSkipped)});
    dw.print();
    std::printf("modeled dW layer-time speedup from replay: %.3fx "
                "(hit fraction %.3f, wall %.2fx)\n\n",
                model_dw_speedup, dw_stats.mix.hitFraction(),
                wall_dw_speedup);

    bench::ResultLine line("BENCH_overlap.json", "micro_overlap");
    line.text("layer", smoke ? "smoke-conv" : "vgg13-conv-64x64-32x32-k3")
        .num("hit_frac", s_stats.mix.hitFraction(), 3)
        .num("wall_forward_exact_ms", w_fwd_exact.best * 1e3, 3)
        .num("wall_forward_exact_median_ms", w_fwd_exact.median * 1e3, 3)
        .num("wall_forward_ms", t_pooled * 1e3, 3)
        .num("wall_forward_median_ms", w_pooled.median * 1e3, 3)
        .num("wall_forward_1t_ms", t_single * 1e3, 3)
        .num("wall_forward_1t_median_ms", w_single.median * 1e3, 3)
        .num("wall_forward_speedup", wall_fwd_speedup, 3)
        .integer("model_serial_cycles",
                 static_cast<long long>(sc.mercuryTotal()))
        .integer("model_overlap_cycles",
                 static_cast<long long>(oc.mercuryTotal()))
        .num("wall_backward_exact_ms", t_bwd_exact * 1e3, 3)
        .num("wall_backward_exact_median_ms", w_bwd_exact.median * 1e3, 3)
        .num("wall_backward_ms", t_bwd_replay * 1e3, 3)
        .num("wall_backward_median_ms", w_bwd_replay.median * 1e3, 3)
        .num("wall_backward_speedup", wall_bwd_speedup, 3)
        .integer("model_backward_base_cycles",
                 static_cast<long long>(bb.mercuryTotal()))
        .integer("model_backward_replay_cycles",
                 static_cast<long long>(br.mercuryTotal()))
        .num("model_backward_speedup", model_bwd_speedup, 3)
        .num("wall_dw_exact_ms", t_dw_exact * 1e3, 3)
        .num("wall_dw_exact_median_ms", w_dw_exact.median * 1e3, 3)
        .num("wall_dw_ms", t_dw_replay * 1e3, 3)
        .num("wall_dw_median_ms", w_dw_replay.median * 1e3, 3)
        .num("wall_dw_speedup", wall_dw_speedup, 3)
        .integer("model_dw_base_cycles",
                 static_cast<long long>(wb.mercuryTotal()))
        .integer("model_dw_replay_cycles",
                 static_cast<long long>(wr.mercuryTotal()))
        .num("model_dw_speedup", model_dw_speedup, 3)
        .speedups(model_speedup, wall_speedup)
        .config("bits", kBits)
        .config("threads", threads)
        .config("blockRows", pooled_pipe.blockRows);
    bench::stdConfig(line);
    line.print();
    return 0;
}
