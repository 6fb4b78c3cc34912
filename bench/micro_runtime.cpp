/**
 * @file
 * Microbenchmark of the grouped/depthwise convolution workload (the
 * MobileNet-style scenario): a depthwise 3x3 layer and a grouped 3x3
 * layer run a full training step — forward with capture, replayed dX,
 * replayed dW — through the conv reuse engine.
 *
 * Three views per layer:
 *
 *  1. Bit-identity self-check: a threads-1 frontend and the pooled
 *     one must produce identical outputs and statistics (the golden
 *     contract tests/test_runtime.cpp pins; a divergence fails the
 *     bench).
 *  2. Modeled accelerator cycles of the full step: forward +
 *     backward(include_weight_grad) with overlapDetection +
 *     backwardReuse + weightGradReuse against the three-pass
 *     baseline — deterministic given the measured mix, and gated by
 *     tools/check_bench.py against the committed baselines.
 *  3. Functional wall time of the full step: the reuse engines
 *     (forward + backwardInput + backwardWeights over one captured
 *     record) against the exact tensor ops (conv2dForward +
 *     conv2dBackwardInput + conv2dBackwardWeight). The exact ops run
 *     on one thread, so the speedups (`wall_*_step_speedup`,
 *     `wall_speedup`) divide by the threads-1 reuse step; the pooled
 *     step is printed next to it (`wall_*_step_pooled_*`), not
 *     divided. Every wall column prints its fastest and median
 *     repetition to 0.001 ms. Layers the modeled stoppage (§III-D)
 *     would switch detection off for — the depthwise few-filters
 *     regime — report the steady-state post-stoppage step, which is
 *     the exact step (wall parity), with a `*_stopped` flag in the
 *     JSON.
 *
 * The per-layer depthwise line is expected to be BELOW 1x: a
 * depthwise channel pass serves exactly one filter, so the signature
 * charge dwarfs the skippable compute — the paper's few-filters
 * effect (Fig. 12), which the adaptive stoppage controller (§III-D)
 * exists to catch. The workload-level story is the inverted-residual
 * BLOCK (expand 1x1, depthwise 3x3, project 1x1): the pointwise
 * layers carry ~7x the depthwise MACs and map to the FC formulation
 * where detection amortizes over the full filter count, so the block
 * step stays well above 1x with the depthwise loss priced in. That
 * block-level number is the headline `modeled_speedup`.
 *
 * Emits a BENCH_overlap.json line (bench = "micro_runtime") in the
 * shared result schema. MERCURY_BENCH_SMOKE=1 shrinks the layers for
 * the CI smoke run; MERCURY_BENCH_REPS=N caps repetitions for the CI
 * wall-clock step; MERCURY_BENCH_THREADS=N pins the pooled
 * frontend's thread count.
 */

#include <cstdio>
#include <string>

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
constexpr uint64_t kSeed = 59;

/** One grouped-conv workload measured by this bench. */
struct Workload
{
    const char *key;  ///< JSON key prefix (dw / grouped)
    const char *name; ///< table label
    int64_t channels;
    int64_t filters;
    int64_t groups;
    int64_t hw;
};

struct StepResult
{
    double hit_frac = 0.0;
    double wall_speedup = 0.0;
    double model_speedup = 0.0;
    uint64_t model_base_cycles = 0;
    uint64_t model_step_cycles = 0;
    bench::WallTime wall_exact;   ///< exact-ops step (min/median)
    bench::WallTime wall_runtime; ///< threads-1 reuse step (min/median)
    bench::WallTime wall_pooled;  ///< pooled reuse step (min/median)
    bool stopped = false;         ///< §III-D stoppage regime (parity)
};

/** Full-training-step measurement of one grouped workload. */
bool
runWorkload(const Workload &wl, const PipelineConfig &pooled_pipe,
            StepResult &out)
{
    Dataset ds = makeImageDataset(1, 2, wl.channels, wl.hw, kSeed,
                                  0.02f);
    Rng rng(kSeed + 1);
    Tensor w({wl.filters, wl.channels / wl.groups, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = wl.channels;
    spec.outChannels = wl.filters;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    spec.groups = wl.groups;
    Tensor grad({1, wl.filters, wl.hw, wl.hw});
    grad.fillNormal(rng);

    PipelineConfig single_pipe = pooled_pipe;
    single_pipe.threads = 1;
    DetectionFrontend single_fe(kSets, kWays, kVersions, kBits, kSeed,
                                single_pipe);
    ConvReuseEngine single(single_fe, kBits);
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, kBits, kSeed,
                                pooled_pipe);
    ConvReuseEngine pooled(pooled_fe, kBits);

    // --- 1. Bit-identity self-check (threads 1 == pooled) ----------
    ReuseStats s_stats, p_stats;
    SignatureRecord s_rec, p_rec;
    const Tensor s_out =
        single.forward(ds.inputs, w, Tensor(), spec, s_stats, &s_rec);
    const Tensor p_out =
        pooled.forward(ds.inputs, w, Tensor(), spec, p_stats, &p_rec);
    ReuseStats sb, pb, sw, pw;
    const Tensor s_gin = single.backwardInput(grad, w, spec, wl.hw,
                                              wl.hw, s_rec, sb);
    const Tensor p_gin = pooled.backwardInput(grad, w, spec, wl.hw,
                                              wl.hw, p_rec, pb);
    const Tensor s_dw = single.backwardWeights(ds.inputs, grad, spec,
                                               s_rec, sw);
    const Tensor p_dw = pooled.backwardWeights(ds.inputs, grad, spec,
                                               p_rec, pw);
    if (!(s_out == p_out) || !(s_gin == p_gin) || !(s_dw == p_dw) ||
        s_stats.macsSkipped != p_stats.macsSkipped ||
        sb.macsSkipped != pb.macsSkipped ||
        sw.macsSkipped != pw.macsSkipped) {
        std::fprintf(stderr,
                     "FATAL: %s: the pooled step diverges from the "
                     "threads-1 run\n",
                     wl.name);
        return false;
    }

    // --- 2. Modeled cycles of the full step -------------------------
    // The model accounts the accelerator (Fig. 8 overlap is hardware
    // there): deterministic and host-independent.
    AcceleratorConfig base_cfg; // no reuse knobs: three-pass baseline
    AcceleratorConfig reuse_cfg;
    reuse_cfg.overlapDetection = true;
    reuse_cfg.backwardReuse = true;
    reuse_cfg.weightGradReuse = true;
    const auto base_model = sim::CostModel::create(base_cfg);
    const auto reuse_model = sim::CostModel::create(reuse_cfg);
    const LayerShape shape =
        LayerShape::conv(wl.name, wl.channels, wl.filters, wl.hw, wl.hw,
                         3, 1, 1, wl.groups);
    const HitMix mix = s_stats.mix;

    const uint64_t base_cycles =
        base_model->baselineCycles(shape, 1) * 3; // fwd + dX + dW
    const LayerCycles fwd = reuse_model->layerCost(shape, 1, mix, kBits);
    const LayerCycles bwd = reuse_model->backwardCost(
        shape, 1, mix, kBits, /*include_weight_grad=*/true);
    const uint64_t step_cycles = fwd.mercuryTotal() + bwd.mercuryTotal();

    // --- 3. Functional wall time of the full step -------------------
    const bench::WallTime w_exact = bench::wallSeconds(
        [&] {
            conv2dForward(ds.inputs, w, Tensor(), spec);
            conv2dBackwardInput(grad, w, spec, wl.hw, wl.hw);
            conv2dBackwardWeight(ds.inputs, grad, spec);
        },
        0.5);
    // §III-D stoppage: when the modeled reuse step costs at least the
    // baseline (the few-filters regime — depthwise layers), the
    // adaptive controller switches the layer's detection off after
    // stoppageT batches and the training driver runs the exact
    // three-pass step from then on. The steady-state runtime step IS
    // the exact step, so wall parity holds by construction; the flag
    // is recorded so the JSON says which regime the number reflects.
    const bool det_stopped = step_cycles >= base_cycles;
    bench::WallTime w_runtime, w_pooled;
    if (det_stopped) {
        w_runtime = w_pooled = w_exact;
        std::printf("%s: modeled reuse step >= baseline — §III-D "
                    "stoppage disables detection; steady-state wall is "
                    "the exact step (parity)\n",
                    wl.name);
    } else {
        const auto step = [&](ConvReuseEngine &engine) {
            return bench::wallSeconds(
                [&] {
                    ReuseStats s;
                    SignatureRecord rec;
                    engine.forward(ds.inputs, w, Tensor(), spec, s, &rec);
                    engine.backwardInput(grad, w, spec, wl.hw, wl.hw, rec,
                                         s);
                    engine.backwardWeights(ds.inputs, grad, spec, rec, s);
                },
                0.5);
        };
        w_runtime = step(single);
        w_pooled = step(pooled);
    }
    const double t_exact = w_exact.best;
    const double t_runtime = w_runtime.best;

    out.hit_frac = mix.hitFraction();
    out.wall_speedup = t_exact / t_runtime;
    out.wall_exact = w_exact;
    out.wall_runtime = w_runtime;
    out.wall_pooled = w_pooled;
    out.stopped = det_stopped;
    out.model_base_cycles = base_cycles;
    out.model_step_cycles = step_cycles;
    out.model_speedup = static_cast<double>(base_cycles) /
                        static_cast<double>(step_cycles);

    Table table(std::string(wl.name) + " — full training step");
    table.header({"view", "exact/baseline", "runtime", "speedup"});
    table.row({"wall-min-ms (1 thread)", Table::num(t_exact * 1e3, 3),
               Table::num(t_runtime * 1e3, 3),
               Table::num(out.wall_speedup, 2) + "x"});
    table.row({"wall-median-ms (1 thread)",
               Table::num(w_exact.median * 1e3, 3),
               Table::num(w_runtime.median * 1e3, 3),
               Table::num(w_exact.median / w_runtime.median, 2) + "x"});
    table.row({"wall-min/median-ms (pooled)", "-",
               Table::num(w_pooled.best * 1e3, 3) + " / " +
                   Table::num(w_pooled.median * 1e3, 3),
               "-"});
    table.row({"modeled cycles", std::to_string(base_cycles),
               std::to_string(step_cycles),
               Table::num(out.model_speedup, 2) + "x"});
    table.print();
    std::printf("%s: hit fraction %.3f, forward skipped %llu of %llu "
                "MACs\n\n",
                wl.name, out.hit_frac,
                static_cast<unsigned long long>(s_stats.macsSkipped),
                static_cast<unsigned long long>(s_stats.macsTotal));
    return true;
}

/** Measured mix of a channel-spanning pointwise pass (d = cin). */
HitMix
pointwiseMix(int64_t rows, int64_t d, uint64_t seed)
{
    Rng rng(seed);
    Tensor proto({std::max<int64_t>(rows / 8, 1), d});
    proto.fillNormal(rng);
    Tensor r({rows, d});
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < d; ++j)
            r.at2(i, j) = proto.at2(i % proto.dim(0), j) +
                          0.02f * static_cast<float>(rng.normal());
    DetectionFrontend fe(kSets, kWays, kVersions, kBits, seed);
    return fe.detect(r, kBits).mix;
}

/**
 * Modeled full-training-step cycles of one inverted-residual block
 * (expand 1x1 -> depthwise 3x3 -> project 1x1) against the
 * three-pass no-reuse baseline. Per layer, detection either pays or
 * it does not: layers whose reuse step costs more than their
 * baseline run detection-free, which is exactly what the adaptive
 * stoppage controller (§III-D) converges to — for this block that is
 * the depthwise layer (few-filters effect, Fig. 12).
 *
 * @param stopped_out layers the modeled stoppage switched off
 */
double
blockModeledSpeedup(int64_t c_in, int64_t expand_factor, int64_t hw,
                    const HitMix &dw_mix, uint64_t &base_out,
                    uint64_t &step_out, std::string &stopped_out)
{
    const int64_t mid = c_in * expand_factor;
    const LayerShape layers[3] = {
        LayerShape::conv("block.expand", c_in, mid, hw, hw, 1),
        LayerShape::conv("block.dw", mid, mid, hw, hw, 3, 1, 1, mid),
        LayerShape::conv("block.project", mid, c_in, hw, hw, 1),
    };

    AcceleratorConfig base_cfg;
    AcceleratorConfig reuse_cfg;
    reuse_cfg.overlapDetection = true;
    reuse_cfg.backwardReuse = true;
    reuse_cfg.weightGradReuse = true;
    const auto base_model = sim::CostModel::create(base_cfg);
    const auto reuse_model = sim::CostModel::create(reuse_cfg);

    uint64_t base = 0, step = 0;
    stopped_out.clear();
    for (const LayerShape &shape : layers) {
        // Pointwise layers hash channel-spanning vectors (the
        // pointwise-as-FC mapping); the depthwise layer reuses the
        // functionally measured per-channel mix.
        const HitMix mix =
            shape.kernel == 1
                ? pointwiseMix(std::min<int64_t>(hw * hw, 512),
                               shape.inChannels, kSeed + shape.inChannels)
                : dw_mix;
        const uint64_t layer_base =
            base_model->baselineCycles(shape, 1) * 3;
        uint64_t layer_step =
            reuse_model->layerCost(shape, 1, mix, kBits).mercuryTotal() +
            reuse_model
                ->backwardCost(shape, 1, mix, kBits,
                               /*include_weight_grad=*/true)
                .mercuryTotal();
        if (layer_step >= layer_base) {
            // §III-D stoppage: detection off, all three passes exact.
            layer_step = layer_base;
            if (!stopped_out.empty())
                stopped_out += ", ";
            stopped_out += shape.name;
        }
        base += layer_base;
        step += layer_step;
    }
    base_out = base;
    step_out = step;
    return static_cast<double>(base) / static_cast<double>(step);
}

} // namespace

int
main()
{
    using namespace mercury;
    const bool smoke = bench::smoke();

    // MobileNet-style middle-of-network shapes: a depthwise 3x3 (one
    // filter per channel pass, so an owner row computes one value) and
    // a ResNeXt-style grouped 3x3. Smoke mode shrinks both to toys.
    const Workload depthwise{"dw",
                             smoke ? "smoke-dw-conv" : "dw-conv-32x16x16",
                             smoke ? 8 : 32,
                             smoke ? 8 : 32,
                             smoke ? 8 : 32,
                             smoke ? 8 : 16};
    const Workload grouped{"grouped",
                           smoke ? "smoke-grouped-conv"
                                 : "grouped-conv-32x16x16-g4",
                           smoke ? 8 : 32,
                           smoke ? 8 : 32,
                           smoke ? 4 : 4,
                           smoke ? 8 : 16};

    const int env_threads = bench::benchThreads();
    const int threads = env_threads
                            ? ThreadPool::resolveThreads(env_threads)
                            : std::max(4, ThreadPool::resolveThreads(0));
    std::printf("micro_runtime: grouped/depthwise conv training step "
                "through the reuse engine\n");
    std::printf("(MCACHE %dx%d, %d versions, %d-bit signatures; "
                "threads %d on %d hw)\n\n",
                kSets, kWays, kVersions, kBits, threads,
                ThreadPool::resolveThreads(0));

    PipelineConfig pooled_pipe;
    pooled_pipe.blockRows = 64;
    pooled_pipe.threads = threads;

    StepResult dw, grp;
    if (!runWorkload(depthwise, pooled_pipe, dw))
        return 1;
    if (!runWorkload(grouped, pooled_pipe, grp))
        return 1;

    // Workload-level view: the whole inverted-residual block, with
    // the depthwise layer's few-filters loss priced in against the
    // pointwise layers' FC-mapped wins.
    uint64_t block_base = 0, block_step = 0;
    std::string stopped;
    const double block_speedup = blockModeledSpeedup(
        smoke ? 8 : 32, 2, smoke ? 8 : 16,
        dw.hit_frac > 0 ? HitMix::fromFractions(256, dw.hit_frac)
                        : HitMix::fromFractions(256, 0.0),
        block_base, block_step, stopped);
    Table block("inverted-residual block — modeled full training step");
    block.header({"view", "baseline", "runtime", "speedup"});
    block.row({"modeled cycles", std::to_string(block_base),
               std::to_string(block_step),
               Table::num(block_speedup, 2) + "x"});
    block.print();
    std::printf("block step speedup %.3fx; stoppage disabled detection "
                "on: %s (raw depthwise-layer step %.3fx — the Fig. 12 "
                "few-filters effect §III-D catches)\n\n",
                block_speedup,
                stopped.empty() ? "none" : stopped.c_str(),
                dw.model_speedup);

    // The pointwise layers dominate the block's MACs, so the block
    // step must stay above 1x with the depthwise loss included; hold
    // that as the bench's own acceptance bar (the 5% regression gate
    // rides on the committed JSON baselines).
    if (!smoke && block_speedup <= 1.0) {
        std::fprintf(stderr,
                     "FATAL: modeled block step speedup %.3fx fell to "
                     "or below 1x\n",
                     block_speedup);
        return 1;
    }

    bench::ResultLine line("BENCH_overlap.json", "micro_runtime");
    line.text("layer",
              smoke ? "smoke-inverted-residual" : "inverted-residual-32")
        .num("hit_frac", dw.hit_frac, 3)
        .num("model_dw_step_speedup", dw.model_speedup, 3)
        .integer("model_dw_base_cycles",
                 static_cast<long long>(dw.model_base_cycles))
        .integer("model_dw_step_cycles",
                 static_cast<long long>(dw.model_step_cycles))
        .num("grouped_hit_frac", grp.hit_frac, 3)
        .num("model_grouped_step_speedup", grp.model_speedup, 3)
        .integer("model_grouped_base_cycles",
                 static_cast<long long>(grp.model_base_cycles))
        .integer("model_grouped_step_cycles",
                 static_cast<long long>(grp.model_step_cycles))
        .num("wall_dw_step_speedup", dw.wall_speedup, 3)
        .num("wall_dw_exact_ms", dw.wall_exact.best * 1e3, 3)
        .num("wall_dw_step_ms", dw.wall_runtime.best * 1e3, 3)
        .num("wall_dw_step_median_ms", dw.wall_runtime.median * 1e3, 3)
        .num("wall_dw_step_pooled_ms", dw.wall_pooled.best * 1e3, 3)
        .num("wall_dw_step_pooled_median_ms",
             dw.wall_pooled.median * 1e3, 3)
        .integer("dw_stopped", dw.stopped ? 1 : 0)
        .num("wall_grouped_step_speedup", grp.wall_speedup, 3)
        .num("wall_grouped_exact_ms", grp.wall_exact.best * 1e3, 3)
        .num("wall_grouped_step_ms", grp.wall_runtime.best * 1e3, 3)
        .num("wall_grouped_step_median_ms",
             grp.wall_runtime.median * 1e3, 3)
        .num("wall_grouped_step_pooled_ms", grp.wall_pooled.best * 1e3, 3)
        .num("wall_grouped_step_pooled_median_ms",
             grp.wall_pooled.median * 1e3, 3)
        .integer("grouped_stopped", grp.stopped ? 1 : 0)
        .integer("model_block_base_cycles",
                 static_cast<long long>(block_base))
        .integer("model_block_step_cycles",
                 static_cast<long long>(block_step))
        .speedups(block_speedup, grp.wall_speedup)
        .config("bits", kBits)
        .config("threads", threads)
        .config("blockRows", pooled_pipe.blockRows);
    bench::stdConfig(line);
    line.print();
    return 0;
}
