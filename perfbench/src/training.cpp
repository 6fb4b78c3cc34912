/**
 * @file
 * Training workloads: whole SGD steps (forward, dX, dW, update) of the
 * VGG-13 proxy through Network::trainBatch, with and without a
 * MercuryContext.
 *
 * The benchmark builds the network from the public layer classes
 * rather than calling buildProxy: Network does not expose its layers,
 * buildProxy fixes the input at 12x12, and the traced run has to wrap
 * every layer in a shim. The builder consumes the weight stream in the
 * same order as models/proxies.cpp, so the weights are the proxy's
 * own.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "models/proxies.hpp"
#include "nn/network.hpp"
#include "sim/cost_model.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

using mercury::HitMix;
using mercury::Layer;
using mercury::LayerShape;
using mercury::MercuryContext;
using mercury::Network;
using mercury::ReuseStats;
using mercury::Rng;
using mercury::Tensor;

constexpr int kClasses = 10;
constexpr float kNoise = 0.05f;
// Low enough that reuse-perturbed gradients train on every seed (see
// the README on MobileNet-V2 at higher rates).
constexpr float kLr = 0.001f;
constexpr uint64_t kWeightSeed = 1000;
constexpr uint64_t kProtoSeed = 9001; // class prototypes: the task itself
constexpr int64_t kDistinctBatches = 64;

// The context: 28-bit signatures (the proxy-scale length of
// bench/fig13_accuracy) over the default 64 x 16 MCACHE.
constexpr int kSigBits = 28;
constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kVersions = 4;

constexpr int kSetups = 11;         // setup_s is their median
constexpr int64_t kReplaySteps = 4; // serial == threaded check length
// Pipeline threads of the threaded replay: the driving thread plus two
// workers. The timed loops run serially; see the README on why.
constexpr int kReplayThreads = 3;

struct TrainSpec
{
    const char *name;
    int64_t hw;
    int64_t batch;
    bool reuse; ///< through a MercuryContext (dX and dW reuse on)
    /** Nominal steps per second of one x86 core: a run times
     *  seconds x rate steps. */
    double stepsPerSecond;
};

// Steps short enough that a run's median covers many of them and the
// set-ups spread through it stay cheap (see the README's findings).
const TrainSpec kSpecs[] = {
    {"vgg13_train", 16, 4, true, 25.0},
    {"vgg13_exact", 16, 4, false, 8.5},
};

const TrainSpec *
specFor(const std::string &name)
{
    for (const TrainSpec &s : kSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

/** One layer of a benchmark-built network. */
struct LayerSlot
{
    std::string name;  ///< "conv1", "relu2", "pool1", ...
    bool compute;      ///< conv or dense: timed per layer
    std::vector<LayerShape> shapes; ///< the layer's timing shapes
    std::unique_ptr<Layer> layer;   ///< moved into the Network
};

using Layout = std::vector<LayerSlot>;

void
addCompute(Layout &net, const std::string &name,
           std::unique_ptr<Layer> layer, std::vector<LayerShape> shapes)
{
    net.push_back({name, true, std::move(shapes), std::move(layer)});
}

void
addEltwise(Layout &net, const std::string &name,
           std::unique_ptr<Layer> layer, std::vector<LayerShape> shapes = {})
{
    net.push_back({name, false, std::move(shapes), std::move(layer)});
}

void
addConv3x3(Layout &net, const std::string &name, int64_t ci, int64_t co,
           int64_t hw, Rng &rng, uint64_t id)
{
    addCompute(net, name,
               std::make_unique<mercury::Conv2dLayer>(ci, co, 3, 1, 1, rng,
                                                      id),
               {LayerShape::conv(name, ci, co, hw, hw, 3, 1, 1)});
}

/** 3->12->12, pool, 12->24->24, pool, dense->10 (models/proxies.cpp). */
Layout
buildVgg13(int64_t hw, Rng &rng)
{
    Layout net;
    addConv3x3(net, "conv1", 3, 12, hw, rng, 1);
    addEltwise(net, "relu1", std::make_unique<mercury::ReluLayer>());
    addConv3x3(net, "conv2", 12, 12, hw, rng, 2);
    addEltwise(net, "relu2", std::make_unique<mercury::ReluLayer>());
    addEltwise(net, "pool1", std::make_unique<mercury::MaxPoolLayer>(),
               {LayerShape::pool("pool1", 12, hw, hw, 2, 2)});
    addConv3x3(net, "conv3", 12, 24, hw / 2, rng, 3);
    addEltwise(net, "relu3", std::make_unique<mercury::ReluLayer>());
    addConv3x3(net, "conv4", 24, 24, hw / 2, rng, 4);
    addEltwise(net, "relu4", std::make_unique<mercury::ReluLayer>());
    addEltwise(net, "pool2", std::make_unique<mercury::MaxPoolLayer>(),
               {LayerShape::pool("pool2", 24, hw / 2, hw / 2, 2, 2)});
    addEltwise(net, "flatten", std::make_unique<mercury::FlattenLayer>());
    const int64_t feat = 24 * (hw / 4) * (hw / 4);
    addCompute(net, "fc",
               std::make_unique<mercury::DenseLayer>(feat, kClasses, rng, 5),
               {LayerShape::fc("fc", feat, kClasses)});
    return net;
}

/** Forward, dX and dW reuse statistics, as a set. */
struct Totals
{
    ReuseStats fwd;
    ReuseStats dx;
    ReuseStats dw;
};

/** State the shims of one traced network share. */
struct ShimState
{
    Tracer *tracer = nullptr;
    int64_t step = -1;  ///< current step id; -1 during setup
    int stepSpan = 0;   ///< span name id of a whole trainBatch call
    std::map<int, std::string> metricOf; ///< span name id -> its metric
    std::vector<Totals> stats; ///< deltas around each slot's calls
};

/**
 * Benchmark-owned wrapper around one layer: a span around forward,
 * backward and step, and the context's ReuseStats deltas around
 * forward and backward. It calls only the inner layer's public API,
 * so the wrapped network computes exactly what the bare one does.
 */
class LayerShim final : public Layer
{
  public:
    LayerShim(std::unique_ptr<Layer> inner, ShimState &state, size_t slot,
              int fwd_span, int bwd_span, int sgd_span)
        : inner_(std::move(inner))
        , state_(state)
        , slot_(slot)
        , fwdSpan_(fwd_span)
        , bwdSpan_(bwd_span)
        , sgdSpan_(sgd_span)
    {
    }

    Tensor forward(const Tensor &x, MercuryContext *ctx) override
    {
        const ReuseStats f0 = ctx ? ctx->totals() : ReuseStats{};
        Tensor y;
        {
            ScopedSpan span(state_.tracer, 0, fwdSpan_, state_.step);
            y = inner_->forward(x, ctx);
        }
        if (ctx)
            addStats(state_.stats[slot_].fwd, statsDelta(ctx->totals(), f0));
        return y;
    }

    void step(float lr) override
    {
        ScopedSpan span(state_.tracer, 0, sgdSpan_, state_.step);
        inner_->step(lr);
    }

    void describeStep(mercury::StepDescBuilder &b) const override
    {
        inner_->describeStep(b);
    }

    std::string name() const override { return inner_->name(); }
    uint64_t paramCount() const override { return inner_->paramCount(); }

  protected:
    Tensor backwardImpl(const Tensor &grad, MercuryContext *ctx) override
    {
        const ReuseStats dx0 = ctx ? ctx->backwardTotals() : ReuseStats{};
        const ReuseStats dw0 = ctx ? ctx->weightGradTotals() : ReuseStats{};
        Tensor g;
        {
            ScopedSpan span(state_.tracer, 0, bwdSpan_, state_.step);
            g = inner_->backward(grad, ctx);
        }
        if (ctx) {
            Totals &s = state_.stats[slot_];
            addStats(s.dx, statsDelta(ctx->backwardTotals(), dx0));
            addStats(s.dw, statsDelta(ctx->weightGradTotals(), dw0));
        }
        return g;
    }

  private:
    std::unique_ptr<Layer> inner_;
    ShimState &state_;
    size_t slot_;
    int fwdSpan_;
    int bwdSpan_;
    int sgdSpan_;
};

/** A network ready to train, with its context and (traced) shims. */
struct Trainee
{
    Layout layout; ///< names and shapes; layers moved into net
    std::unique_ptr<MercuryContext> ctx;
    std::unique_ptr<ShimState> shim; ///< traced only; outlives net
    std::unique_ptr<Network> net;
};

/** A fresh network, shimmed when a tracer is given, whose context (if
 *  any) runs `threads` pipeline threads. */
Trainee
makeTrainee(const TrainSpec &spec, Tracer *tracer = nullptr, int threads = 1)
{
    Trainee t;
    Rng rng(kWeightSeed);
    t.layout = buildVgg13(spec.hw, rng);
    if (spec.reuse) {
        t.ctx = std::make_unique<MercuryContext>(kSigBits, kSets, kWays,
                                                 kVersions);
        t.ctx->setBackwardReuse(true);
        t.ctx->setWeightGradReuse(true);
        mercury::PipelineConfig pipe;
        pipe.threads = threads;
        t.ctx->setPipeline(pipe);
    }
    if (tracer) {
        t.shim = std::make_unique<ShimState>();
        t.shim->tracer = tracer;
        t.shim->stats.resize(t.layout.size());
        t.shim->stepSpan = tracer->intern("nn.step", "nn");
        t.shim->metricOf[t.shim->stepSpan] = "nn.step_self_ms";
    }
    const std::string mod = spec.reuse ? "core" : "tensor";
    t.net = std::make_unique<Network>();
    for (size_t i = 0; i < t.layout.size(); ++i) {
        LayerSlot &slot = t.layout[i];
        std::unique_ptr<Layer> layer = std::move(slot.layer);
        if (tracer) {
            const std::string cat = slot.compute ? mod : "tensor";
            const std::string base = cat + "." + slot.name;
            const int fwd = tracer->intern(base + ".fwd", cat);
            const int bwd = tracer->intern(base + ".bwd", cat);
            const int sgd = tracer->intern("nn." + slot.name + ".sgd", "nn");
            std::map<int, std::string> &metric = t.shim->metricOf;
            metric[fwd] = slot.compute ? base + ".fwd_ms" : "tensor.eltwise_ms";
            metric[bwd] = slot.compute ? base + ".bwd_ms" : "tensor.eltwise_ms";
            metric[sgd] = "nn.sgd_ms";
            layer = std::make_unique<LayerShim>(std::move(layer), *t.shim,
                                                i, fwd, bwd, sgd);
        }
        t.net->add(std::move(layer));
    }
    return t;
}

/** The run's inputs: kDistinctBatches seeded batches, cycled. */
struct Batches
{
    std::vector<Tensor> x;
    std::vector<std::vector<int>> y;
};

Batches
makeBatches(const TrainSpec &spec, uint64_t seed)
{
    const int64_t c = mercury::kProxyImageChannels;
    const mercury::Dataset ds =
        mercury::makeImageDataset(kDistinctBatches * spec.batch, kClasses, c,
                                  spec.hw, seed, kNoise, kProtoSeed);
    const int64_t image = c * spec.hw * spec.hw;
    Batches b;
    for (int64_t i = 0; i < kDistinctBatches; ++i) {
        Tensor x({spec.batch, c, spec.hw, spec.hw});
        std::copy_n(ds.inputs.data() + i * spec.batch * image,
                    spec.batch * image, x.data());
        b.x.push_back(std::move(x));
        b.y.emplace_back(ds.labels.begin() + i * spec.batch,
                         ds.labels.begin() + (i + 1) * spec.batch);
    }
    return b;
}

/** The context's three running totals. */
Totals
totalsOf(const MercuryContext *ctx)
{
    if (!ctx)
        return {};
    return {ctx->totals(), ctx->backwardTotals(), ctx->weightGradTotals()};
}

bool
sameTotals(const Totals &a, const Totals &b)
{
    return sameStats(a.fwd, b.fwd) && sameStats(a.dx, b.dx) &&
           sameStats(a.dw, b.dw);
}

/** The warm-up step on batch 0. */
float
warmUp(Trainee &t, const Batches &data)
{
    return t.net->trainBatch(data.x[0], data.y[0], kLr, t.ctx.get());
}

/**
 * A timed set-up: construction plus the warm-up step, between two
 * reference passes. The loops are serial, so its process CPU time is
 * its wall time less what the host ran instead (see the README).
 */
struct Setup
{
    Trainee trainee;
    float loss = 0.0f;
    double wallS = 0.0;
    double normS = 0.0; ///< CPU time at the nominal host speed
};

Setup
timedSetup(const TrainSpec &spec, const Batches &data)
{
    const RefPass before = referencePass();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    Setup s{makeTrainee(spec)};
    s.loss = warmUp(s.trainee, data);
    s.wallS = secondsSince(t0);
    const double cpu_s = processCpuSeconds() - cpu0;
    s.normS = hostNormalized({cpu_s}, {before.cpuMs, referencePass().cpuMs},
                             kNominalRefMs)[0];
    return s;
}

/**
 * A timed loop. Every step runs after a reference pass, and one more
 * closes the loop, so step i lies between passes i and i + 1.
 */
struct LoopResult
{
    std::vector<double> stepMs;    ///< wall time
    std::vector<double> stepCpuMs; ///< process CPU time
    std::vector<double> refMs;     ///< reference passes, wall time
    std::vector<double> refCpuMs;  ///< ... CPU time
    std::vector<float> losses;
    Totals before;       ///< context totals when the loop started
    Totals afterReplay;  ///< ... after the first kReplaySteps steps
    Totals after;        ///< ... when it ended

    void addReference()
    {
        const RefPass p = referencePass();
        refMs.push_back(p.wallMs);
        refCpuMs.push_back(p.cpuMs);
    }

    /** Step CPU times at the nominal host speed. */
    std::vector<double> normalizedMs() const
    {
        return hostNormalized(stepCpuMs, refCpuMs, kNominalRefMs);
    }
};

/** Timed step `s` after the warm-up (batches cycle), recorded in `r`. */
void
timedStep(Trainee &t, const Batches &data, int64_t s, LoopResult &r)
{
    const size_t b = static_cast<size_t>((s + 1) % kDistinctBatches);
    Tracer *tracer = t.shim ? t.shim->tracer : nullptr;
    if (t.shim)
        t.shim->step = s;
    r.addReference();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point s0 = Clock::now();
    float loss = 0.0f;
    {
        ScopedSpan span(tracer, 0, t.shim ? t.shim->stepSpan : 0, s);
        loss = t.net->trainBatch(data.x[b], data.y[b], kLr, t.ctx.get());
    }
    r.stepMs.push_back(secondsSince(s0) * 1e3);
    r.stepCpuMs.push_back((processCpuSeconds() - cpu0) * 1e3);
    r.losses.push_back(loss);
    if (s < kReplaySteps)
        r.afterReplay = totalsOf(t.ctx.get());
    r.after = totalsOf(t.ctx.get());
}

std::unique_ptr<mercury::sim::CostModel>
costModelFor()
{
    return mercury::sim::CostModel::create(
        modeledAccelerator(kSigBits, kSets, kWays, kVersions, 1, true));
}

std::vector<LayerShape>
stackOf(const Layout &layout)
{
    std::vector<LayerShape> stack;
    for (const LayerSlot &s : layout)
        stack.insert(stack.end(), s.shapes.begin(), s.shapes.end());
    return stack;
}

std::vector<HitMix>
mixesFor(const std::vector<LayerShape> &stack, const HitMix &measured)
{
    std::vector<HitMix> mixes(stack.size());
    for (size_t i = 0; i < stack.size(); ++i)
        if (stack[i].reusable())
            mixes[i] = channelMix(stack[i], measured);
    return mixes;
}

/** Modeled baseline / MERCURY cycles of one layer's fwd + gradients. */
double
layerModeledSpeedup(const mercury::sim::CostModel &model,
                    const LayerSlot &slot, const HitMix &measured,
                    int64_t batch)
{
    mercury::LayerCycles c;
    for (const LayerShape &s : slot.shapes) {
        if (!s.reusable())
            continue;
        const HitMix m = channelMix(s, measured);
        c += model.layerCost(s, batch, m, kSigBits);
        c += model.backwardCost(s, batch, m, kSigBits, true);
    }
    return ratio(static_cast<double>(c.baseline),
                 static_cast<double>(c.mercuryTotal()));
}

void
checkThreadedReplay(const TrainSpec &spec, const Batches &data,
                    float warm_loss, const LoopResult &loop, Report &rep)
{
    // The repo's serial == threaded contract: the first steps replayed
    // on kReplayThreads pipeline threads reproduce the serial losses
    // and all three ReuseStats totals bit for bit.
    Trainee t = makeTrainee(spec, nullptr, kReplayThreads);
    rep.check(warmUp(t, data) == warm_loss,
              "threaded replay: warm-up loss differs from the serial run");
    const int64_t steps =
        std::min(kReplaySteps, static_cast<int64_t>(loop.losses.size()));
    for (int64_t s = 0; s < steps; ++s) {
        const size_t b = static_cast<size_t>(s + 1);
        const float loss =
            t.net->trainBatch(data.x[b], data.y[b], kLr, t.ctx.get());
        rep.check(loss == loop.losses[static_cast<size_t>(s)],
                  "threaded replay: loss of step " + std::to_string(s) +
                      " differs from the serial run");
    }
    rep.check(sameTotals(totalsOf(t.ctx.get()), loop.afterReplay),
              "threaded replay: ReuseStats totals differ from the serial "
              "run");
}

/** Per-step self-time sums of every metric the spans feed, in ms. */
std::map<std::string, std::vector<double>>
perStepSelfMs(const Tracer &tracer, const ShimState &shim, int64_t steps)
{
    const std::vector<Span> spans = tracer.spans();
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, std::vector<double>> per;
    for (const auto &kv : shim.metricOf)
        per[kv.second].assign(static_cast<size_t>(steps), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.id < 0 || s.id >= steps)
            continue; // setup
        per.at(shim.metricOf.at(s.name))[static_cast<size_t>(s.id)] +=
            self[i] / 1e3;
    }
    return per;
}

/**
 * The checks of every timed loop: finite losses, and on the reuse
 * workloads the serial == threaded contract.
 */
void
checkLoop(const TrainSpec &spec, const Batches &data, float warm_loss,
          const LoopResult &loop, Report &rep)
{
    rep.attempt(static_cast<int64_t>(loop.losses.size()) + 1);
    for (size_t s = 0; s < loop.losses.size(); ++s)
        if (!std::isfinite(loop.losses[s]))
            rep.fail("non-finite loss at step " + std::to_string(s));
    if (!std::isfinite(warm_loss))
        rep.fail("non-finite warm-up loss");
    if (spec.reuse)
        checkThreadedReplay(spec, data, warm_loss, loop, rep);
}

/** The per-layer counts and ratios of an untraced timed loop. */
void
reportCounts(const TrainSpec &spec, const Layout &layout,
             const LoopResult &loop, Report &rep)
{
    const ReuseStats fwd = statsDelta(loop.after.fwd, loop.before.fwd);
    const ReuseStats dx = statsDelta(loop.after.dx, loop.before.dx);
    const ReuseStats dw = statsDelta(loop.after.dw, loop.before.dw);
    const double n = static_cast<double>(loop.losses.size());
    rep.set("core.fwd_skip_frac",
            ratio(static_cast<double>(fwd.macsSkipped),
                  static_cast<double>(fwd.macsTotal)));
    rep.set("core.dx_skip_frac", ratio(static_cast<double>(dx.macsSkipped),
                                       static_cast<double>(dx.macsTotal)));
    rep.set("core.dw_skip_frac", ratio(static_cast<double>(dw.macsSkipped),
                                       static_cast<double>(dw.macsTotal)));
    rep.set("core.macs_per_step", static_cast<double>(fwd.macsTotal) / n);
    rep.set("core.dx_macs_per_step", static_cast<double>(dx.macsTotal) / n);
    rep.set("core.dw_macs_per_step", static_cast<double>(dw.macsTotal) / n);
    rep.set("pipeline.mnu_frac",
            ratio(static_cast<double>(fwd.mix.mnu),
                  static_cast<double>(fwd.mix.vectors)));
    rep.set("pipeline.vectors_per_step",
            static_cast<double>(fwd.mix.vectors) / n);
    rep.set("pipeline.passes_per_step",
            static_cast<double>(fwd.channelPasses) / n);
    const std::vector<LayerShape> stack = stackOf(layout);
    rep.set("sim.step_cost_us",
            stepCostUs(*costModelFor(), stack, mixesFor(stack, fwd.mix),
                       spec.batch, kSigBits));
    rep.set("util.busy_frac",
            std::accumulate(loop.stepCpuMs.begin(), loop.stepCpuMs.end(), 0.0) /
                std::accumulate(loop.stepMs.begin(), loop.stepMs.end(), 0.0));
}

/**
 * The traced run: a shimmed network and an untraced twin on the same
 * steps, alternating one step of each. The twin is the reference the
 * shims must reproduce bit for bit, its loop gives the layer counts,
 * and as host drift cancels out of each pair it is the base of
 * trace.overhead_frac.
 */
void
tracedRun(const TrainSpec &spec, const Options &opt, const Batches &data,
          int64_t steps, Report &rep)
{
    // Room for every span of the run: step + 3 per layer per step,
    // plus the warm-up step.
    const size_t per_step = 1 + 3 * 16;
    Tracer tracer(1, per_step * static_cast<size_t>(steps + 1));
    Trainee t = makeTrainee(spec, &tracer);
    Trainee twin = makeTrainee(spec);
    const float warm_loss = warmUp(twin, data);
    {
        ScopedSpan span(&tracer, 0, t.shim->stepSpan, -1);
        rep.check(warmUp(t, data) == warm_loss,
                  "traced run: warm-up loss differs from the untraced twin");
    }
    for (Totals &s : t.shim->stats)
        s = Totals{};
    LoopResult traced, plain;
    plain.before = totalsOf(twin.ctx.get());
    for (int64_t s = 0; s < steps; ++s) {
        timedStep(twin, data, s, plain);
        timedStep(t, data, s, traced);
    }
    plain.addReference();
    checkLoop(spec, data, warm_loss, plain, rep);
    rep.check(traced.losses == plain.losses,
              "traced run: losses differ from the untraced twin");
    rep.check(sameTotals(traced.after, plain.after),
              "traced run: ReuseStats totals differ from the untraced twin");
    reportCounts(spec, twin.layout, plain, rep);

    const std::map<std::string, std::vector<double>> per =
        perStepSelfMs(tracer, *t.shim, steps);
    for (const auto &kv : per)
        rep.set(kv.first, median(kv.second));
    rep.set("trace.overhead_frac",
            median(traced.stepMs) / median(plain.stepMs) - 1.0);
    rep.set("host.ref_ms", median(plain.refMs));

    const auto model = costModelFor();
    std::printf("%s, traced: %lld steps, median per step:\n", spec.name,
                static_cast<long long>(steps));
    for (size_t i = 0; i < t.layout.size(); ++i) {
        const LayerSlot &slot = t.layout[i];
        if (!slot.compute)
            continue;
        const Totals &s = t.shim->stats[i];
        const double v = static_cast<double>(s.fwd.mix.vectors);
        const double hit = ratio(static_cast<double>(s.fwd.mix.hit), v);
        // Without reuse the modeled machine runs the baseline, so
        // vgg13_exact reports no sim.<L> speedups.
        const double speedup =
            spec.reuse
                ? layerModeledSpeedup(*model, slot, s.fwd.mix, spec.batch)
                : 1.0;
        const std::string mod = spec.reuse ? "core." : "tensor.";
        if (spec.reuse) {
            rep.set("pipeline." + slot.name + ".hit_frac", hit);
            rep.set("sim." + slot.name + ".modeled_speedup", speedup);
        }
        std::printf("  %-6s fwd %8.3f ms  bwd %8.3f ms  hit %.4f of %lld "
                    "vectors/step  modeled %.4fx\n",
                    slot.name.c_str(), rep.get(mod + slot.name + ".fwd_ms"),
                    rep.get(mod + slot.name + ".bwd_ms"), hit,
                    static_cast<long long>(s.fwd.mix.vectors / steps),
                    speedup);
    }

    if (!tracer.writeChromeTrace(opt.traceOut))
        rep.fail("could not write the trace file " + opt.traceOut);
    else
        std::printf("trace: %s (%zu spans)\n", opt.traceOut.c_str(),
                    tracer.spans().size());
}

/** The untraced run: the end-to-end metrics. */
void
untracedRun(const TrainSpec &spec, const Batches &data, int64_t steps,
            Report &rep)
{
    // Set-up, kSetups times, spread over the run (one before each
    // kSetups-th of the timed steps) so that their median sees the same
    // host as the step times. The first set-up's network is the one
    // timed; each later one is built, checked against it and dropped.
    std::vector<double> setup_wall, setup_norm;
    Setup first = timedSetup(spec, data);
    setup_wall.push_back(first.wallS);
    setup_norm.push_back(first.normS);
    Trainee &t = first.trainee;
    LoopResult loop;
    loop.before = totalsOf(t.ctx.get());
    for (int i = 0; i < kSetups; ++i) {
        if (i > 0) {
            const Setup again = timedSetup(spec, data);
            setup_wall.push_back(again.wallS);
            setup_norm.push_back(again.normS);
            rep.check(again.loss == first.loss &&
                          sameTotals(totalsOf(again.trainee.ctx.get()),
                                     loop.before),
                      "setup " + std::to_string(i) +
                          " did not reproduce the first warm-up step");
        }
        for (int64_t s = steps * i / kSetups; s < steps * (i + 1) / kSetups;
             ++s)
            timedStep(t, data, s, loop);
    }
    loop.addReference();
    checkLoop(spec, data, first.loss, loop, rep);

    // Without reuse the modeled machine runs the baseline: 1.
    const ReuseStats fwd = statsDelta(loop.after.fwd, loop.before.fwd);
    const std::vector<LayerShape> stack = stackOf(t.layout);
    const double modeled =
        spec.reuse ? costModelFor()
                         ->stepCost(stack, mixesFor(stack, fwd.mix),
                                    spec.batch, kSigBits)
                         .speedup()
                   : 1.0;
    const std::vector<double> norm_ms = loop.normalizedMs();
    rep.set("setup_s", median(setup_norm));
    rep.set("step_ms_p50", median(norm_ms));
    rep.set("modeled_speedup", modeled);
    rep.set("train_loss", meanLoss(loop.losses));

    std::printf("%s: %lld timed steps of batch %lld at %lldx%lld, %s, "
                "serial\n",
                spec.name, static_cast<long long>(steps),
                static_cast<long long>(spec.batch),
                static_cast<long long>(spec.hw),
                static_cast<long long>(spec.hw),
                spec.reuse ? "MercuryContext (28-bit, dX+dW reuse)"
                           : "no context (tensor ops)");
    const std::string n = "n=" + std::to_string(steps);
    show("setup_s", rep.get("setup_s"), "s",
         "median of " + std::to_string(kSetups) +
             " setups, CPU time at nominal host speed");
    show("setup_s (wall)", median(setup_wall), "s", "as measured");
    show("step_ms_p50", rep.get("step_ms_p50"), "ms",
         n + ", CPU time at nominal host speed");
    show("step_ms_p90", percentile(norm_ms, 0.9), "ms",
         n + ", " + std::to_string(samplesBeyond(0.9, norm_ms.size())) +
             " beyond; highest tail with 10 beyond: " +
             tailName(tailLevel(norm_ms.size())));
    show("step_ms_p50 (wall)", median(loop.stepMs), "ms", "as measured");
    show("step_ms_p50 (CPU)", median(loop.stepCpuMs), "ms", "as measured");
    show("reference pass", median(loop.refMs), "ms",
         "wall; nominal " + std::to_string(kNominalRefMs));
    const double wall_ms =
        std::accumulate(loop.stepMs.begin(), loop.stepMs.end(), 0.0);
    show("images_per_s",
         static_cast<double>(spec.batch * steps) * 1e3 / wall_ms, "img/s",
         "wall time of the timed steps");
    show("modeled_speedup", modeled, "x");
    show("train_loss", rep.get("train_loss"), "nat",
         "mean over the timed steps");
    std::printf("  loss by step:");
    for (int64_t q = 0; q <= 4; ++q) {
        const int64_t s = q * (steps - 1) / 4;
        std::printf(" %lld: %.4f", static_cast<long long>(s),
                    loop.losses[static_cast<size_t>(s)]);
    }
    std::printf("\n");
}

} // namespace

bool
isTrainingWorkload(const std::string &name)
{
    return specFor(name) != nullptr;
}

void
runTraining(const Options &opt, Report &rep)
{
    const TrainSpec &spec = *specFor(opt.workload);
    const int64_t steps =
        std::max<int64_t>(1, std::llround(opt.seconds * spec.stepsPerSecond));
    const Batches data = makeBatches(spec, opt.seed);
    if (opt.trace)
        tracedRun(spec, opt, data, steps, rep);
    else
        untracedRun(spec, data, steps, rep);
}

} // namespace perfbench
