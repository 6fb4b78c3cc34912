/**
 * @file
 * Golden-equivalence suite for ReuseRuntime (core/reuse_runtime.hpp):
 * every engine pass that was ported onto the runtime — conv / FC /
 * attention x forward / backwardInput / backwardWeights|projection —
 * must produce bit-identical outputs AND statistics (mix, macsTotal,
 * macsSkipped, channelPasses) across serial, overlapped, and replay
 * scheduling; zero-hit passes must be bit-identical to the exact
 * tensor ops, including the grouped and depthwise conv descriptors
 * (the MobileNet-style workload). Also: a direct scheduler-contract
 * test (HIT rows copy only after their owners compute, on a pool),
 * end-to-end training of inverted-residual blocks with all three
 * reuse passes, whole-network training goldens (conv stack and
 * attention + dense: threaded and overlapped runs equal the serial
 * run), and a TSan stress for the sanitizer CI job.
 *
 * The pre-refactor engine behavior is pinned twice: the untouched
 * engine suites (test_reuse_engines, test_replay, test_pipeline)
 * still pass against the ported engines, and this file locks the
 * serial == overlapped == exact-op equivalences the port must keep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/reuse_runtime.hpp"
#include "nn/attention_layer.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "nn/mercury_hooks.hpp"
#include "nn/network.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/signature_record.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kVersions = 4;
constexpr uint64_t kSeed = 4242;

PipelineConfig
serialPipe()
{
    PipelineConfig pipe;
    pipe.blockRows = 16; // several blocks per pass
    pipe.shards = 4;
    pipe.threads = 1;
    return pipe;
}

PipelineConfig
overlapPipe()
{
    PipelineConfig pipe = serialPipe();
    pipe.threads = 4;
    pipe.overlap = OverlapMode::On;
    return pipe;
}

ConvSpec
convSpec(int64_t cin, int64_t cout, int64_t k, int64_t stride = 1,
         int64_t pad = 0, int64_t groups = 1)
{
    ConvSpec spec;
    spec.inChannels = cin;
    spec.outChannels = cout;
    spec.kernelH = spec.kernelW = k;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = groups;
    return spec;
}

/** Input whose channel planes are built from a few prototype rows. */
Tensor
similarInput(int64_t n, int64_t c, int64_t h, int64_t w, float eps,
             uint64_t seed)
{
    Rng rng(seed);
    Tensor t({n, c, h, w});
    for (int64_t b = 0; b < n; ++b)
        for (int64_t ch = 0; ch < c; ++ch) {
            const float base = static_cast<float>(rng.normal());
            for (int64_t y = 0; y < h; ++y)
                for (int64_t x = 0; x < w; ++x)
                    t.at4(b, ch, y, x) =
                        base + eps * static_cast<float>(rng.normal());
        }
    return t;
}

/** (n, d) matrix of duplicated prototype rows (guaranteed hits). */
Tensor
duplicateRows(int64_t n, int64_t d, int64_t uniques, uint64_t seed)
{
    Rng rng(seed);
    Tensor proto({uniques, d});
    proto.fillNormal(rng);
    Tensor rows({n, d});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < d; ++j)
            rows.at2(i, j) = proto.at2(i % uniques, j);
    return rows;
}

void
expectStatsEqual(const ReuseStats &a, const ReuseStats &b,
                 const char *what)
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
// Scheduler contract: the runtime's RowPass delivery discipline, tested
// directly on a live pass (no engine involved).
// ---------------------------------------------------------------------

TEST(RuntimeScheduler, RowPassForwardsAfterOwnersCompute)
{
    Tensor rows = duplicateRows(64, 12, 4, kSeed + 2);
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                         overlapPipe());
    OwnerTable table(fe.entries());

    std::vector<std::atomic<int>> state(64); // 0 empty, 1 computed/copied
    for (auto &s : state)
        s.store(0);
    std::atomic<bool> copy_before_owner{false};

    ReuseRuntime rt(fe, 20);
    ReuseRuntime::RowPass rp;
    rp.ownerOf = [&](int64_t i, McacheOutcome outcome, int64_t entry) {
        return table.ownerOf(i, outcome, entry);
    };
    rp.computeRow = [&](int64_t i) {
        state[static_cast<size_t>(i)].store(1);
    };
    rp.copyRow = [&](int64_t i, int64_t o) {
        if (state[static_cast<size_t>(o)].load() != 1)
            copy_before_owner.store(true);
        state[static_cast<size_t>(i)].store(1);
    };
    rp.rowSkipCost = 7;

    ReuseStats stats;
    rt.runRows(ReuseRuntime::StreamSource::live(rows), rp, stats);
    ASSERT_GT(stats.mix.hit, 0);
    EXPECT_FALSE(copy_before_owner.load())
        << "a HIT row was copied before its owner computed";
    for (int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(state[static_cast<size_t>(i)].load(), 1) << i;
    // Every HIT found its owner in this pass (a fresh cache).
    EXPECT_EQ(stats.macsSkipped,
              static_cast<uint64_t>(stats.mix.hit) * 7u);
    EXPECT_EQ(stats.channelPasses, 1);
}

// ---------------------------------------------------------------------
// Golden equivalence: conv — serial == overlapped outputs AND stats
// for forward, backwardInput, and backwardWeights, across dense,
// strided+padded, grouped, and depthwise geometries.
// ---------------------------------------------------------------------

struct ConvCase
{
    const char *name;
    int64_t cin, cout, k, stride, pad, groups, hw;
};

class RuntimeConvGolden : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(RuntimeConvGolden, SerialEqualsOverlappedAllThreePasses)
{
    const ConvCase &tc = GetParam();
    const ConvSpec spec =
        convSpec(tc.cin, tc.cout, tc.k, tc.stride, tc.pad, tc.groups);
    Tensor in = similarInput(2, tc.cin, tc.hw, tc.hw, 0.02f, kSeed + 10);
    Rng rng(kSeed + 11);
    Tensor w({tc.cout, tc.cin / tc.groups, tc.k, tc.k});
    w.fillNormal(rng);
    Tensor bias({tc.cout});
    bias.fillNormal(rng);
    const int64_t oh = spec.outH(tc.hw), ow = spec.outW(tc.hw);
    Tensor grad({2, tc.cout, oh, ow});
    grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend overlap_fe(kSets, kWays, kVersions, 20, kSeed,
                                 overlapPipe());
    ConvReuseEngine serial(serial_fe, 16);
    ConvReuseEngine overlap(overlap_fe, 16);

    ReuseStats sf, of;
    SignatureRecord srec, orec;
    Tensor ys = serial.forward(in, w, bias, spec, sf, &srec);
    Tensor yo = overlap.forward(in, w, bias, spec, of, &orec);
    EXPECT_TRUE(ys == yo) << tc.name << " forward, max diff "
                          << ys.maxAbsDiff(yo);
    expectStatsEqual(sf, of, tc.name);
    ASSERT_GT(sf.mix.hit, 0) << tc.name
                             << ": similar input must produce hits";

    ReuseStats sb, ob;
    Tensor gs = serial.backwardInput(grad, w, spec, tc.hw, tc.hw, srec,
                                     sb);
    Tensor go = overlap.backwardInput(grad, w, spec, tc.hw, tc.hw, orec,
                                      ob);
    EXPECT_TRUE(gs == go) << tc.name << " backwardInput, max diff "
                          << gs.maxAbsDiff(go);
    expectStatsEqual(sb, ob, tc.name);

    ReuseStats sw, ow_;
    Tensor dws = serial.backwardWeights(in, grad, spec, srec, sw);
    Tensor dwo = overlap.backwardWeights(in, grad, spec, orec, ow_);
    EXPECT_TRUE(dws == dwo) << tc.name << " backwardWeights, max diff "
                            << dws.maxAbsDiff(dwo);
    expectStatsEqual(sw, ow_, tc.name);
}

TEST_P(RuntimeConvGolden, ZeroHitBitIdentityToExactOps)
{
    const ConvCase &tc = GetParam();
    const ConvSpec spec =
        convSpec(tc.cin, tc.cout, tc.k, tc.stride, tc.pad, tc.groups);
    Rng rng(kSeed + 20);
    Tensor in({1, tc.cin, tc.hw, tc.hw});
    in.fillNormal(rng); // white noise: no similarity at 32 bits
    Tensor w({tc.cout, tc.cin / tc.groups, tc.k, tc.k});
    w.fillNormal(rng);
    Tensor bias({tc.cout});
    bias.fillNormal(rng);
    const int64_t oh = spec.outH(tc.hw), ow = spec.outW(tc.hw);
    Tensor grad({1, tc.cout, oh, ow});
    grad.fillNormal(rng);

    for (const bool overlapped : {false, true}) {
        DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                             overlapped ? overlapPipe() : serialPipe());
        ConvReuseEngine engine(fe, 32);
        ReuseStats fs;
        SignatureRecord record;
        Tensor y = engine.forward(in, w, bias, spec, fs, &record);
        ASSERT_EQ(fs.mix.hit, 0)
            << tc.name << ": white noise at 32 bits must not hit";
        // Forward accumulates per-channel partials (the Fig. 7
        // per-channel pass structure), so it matches conv2dForward's
        // single accumulation chain to float tolerance, not bit for
        // bit — the same contract test_reuse_engines pins.
        Tensor y_ref = conv2dForward(in, w, bias, spec);
        EXPECT_LT(y.maxAbsDiff(y_ref), 1e-5f)
            << tc.name << (overlapped ? " overlapped" : " serial")
            << " forward";

        ReuseStats bs;
        Tensor gin = engine.backwardInput(grad, w, spec, tc.hw, tc.hw,
                                          record, bs);
        Tensor gin_ref =
            conv2dBackwardInput(grad, w, spec, tc.hw, tc.hw);
        EXPECT_TRUE(gin == gin_ref)
            << tc.name << " backwardInput, max diff "
            << gin.maxAbsDiff(gin_ref);

        ReuseStats ws;
        Tensor dw = engine.backwardWeights(in, grad, spec, record, ws);
        Tensor dw_ref = conv2dBackwardWeight(in, grad, spec);
        EXPECT_TRUE(dw == dw_ref)
            << tc.name << " backwardWeights, max diff "
            << dw.maxAbsDiff(dw_ref);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RuntimeConvGolden,
    ::testing::Values(
        ConvCase{"dense3x3", 4, 6, 3, 1, 1, 1, 8},
        ConvCase{"strided", 4, 6, 3, 2, 1, 1, 9},
        ConvCase{"grouped", 4, 6, 3, 1, 1, 2, 8},
        ConvCase{"depthwise", 6, 6, 3, 1, 1, 6, 8}),
    [](const ::testing::TestParamInfo<ConvCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Golden equivalence: FC and attention.
// ---------------------------------------------------------------------

TEST(RuntimeFcGolden, SerialEqualsOverlappedAllThreePasses)
{
    Tensor in = duplicateRows(96, 12, 9, kSeed + 30);
    Rng rng(kSeed + 31);
    Tensor w({12, 10});
    w.fillNormal(rng);
    Tensor grad({96, 10});
    grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend overlap_fe(kSets, kWays, kVersions, 20, kSeed,
                                 overlapPipe());
    FcEngine serial(serial_fe, 16);
    FcEngine overlap(overlap_fe, 16);

    ReuseStats sf, of;
    std::vector<int64_t> s_owners, o_owners;
    SignatureRecord srec, orec;
    Tensor ys = serial.forward(in, w, sf, &s_owners, &srec);
    Tensor yo = overlap.forward(in, w, of, &o_owners, &orec);
    EXPECT_TRUE(ys == yo) << "fc forward";
    EXPECT_EQ(s_owners, o_owners) << "owner maps must match";
    expectStatsEqual(sf, of, "fc forward");
    ASSERT_GT(sf.mix.hit, 0);

    ReuseStats sb, ob;
    Tensor gs = serial.backwardInput(grad, w, srec, sb);
    Tensor go = overlap.backwardInput(grad, w, orec, ob);
    EXPECT_TRUE(gs == go) << "fc backwardInput";
    expectStatsEqual(sb, ob, "fc backwardInput");

    ReuseStats sw, ow;
    Tensor dws = serial.backwardWeights(in, grad, srec, sw);
    Tensor dwo = overlap.backwardWeights(in, grad, orec, ow);
    EXPECT_TRUE(dws == dwo) << "fc backwardWeights";
    expectStatsEqual(sw, ow, "fc backwardWeights");
}

TEST(RuntimeFcGolden, ZeroHitBitIdentityToExactOps)
{
    Rng rng(kSeed + 40);
    Tensor in({64, 16});
    in.fillNormal(rng);
    Tensor w({16, 12});
    w.fillNormal(rng);
    Tensor grad({64, 12});
    grad.fillNormal(rng);

    for (const bool overlapped : {false, true}) {
        DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                             overlapped ? overlapPipe() : serialPipe());
        FcEngine engine(fe, 32);
        ReuseStats fs;
        SignatureRecord record;
        Tensor y = engine.forward(in, w, fs, nullptr, &record);
        ASSERT_EQ(fs.mix.hit, 0);
        EXPECT_TRUE(y == matmul(in, w)) << "fc forward";

        ReuseStats bs;
        Tensor gin = engine.backwardInput(grad, w, record, bs);
        EXPECT_TRUE(gin == matmulTransposeB(grad, w))
            << "fc backwardInput";

        ReuseStats ws;
        Tensor dw = engine.backwardWeights(in, grad, record, ws);
        EXPECT_TRUE(dw == matmul(transpose2d(in), grad))
            << "fc backwardWeights";
    }
}

TEST(RuntimeAttentionGolden, SerialEqualsOverlappedAllThreePasses)
{
    Tensor x = duplicateRows(48, 16, 7, kSeed + 50);
    Rng rng(kSeed + 51);
    Tensor grad({48, 16});
    grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend overlap_fe(kSets, kWays, kVersions, 20, kSeed,
                                 overlapPipe());
    AttentionEngine serial(serial_fe, 16);
    AttentionEngine overlap(overlap_fe, 16);

    ReuseStats sf, of;
    SignatureRecord srec, orec;
    Tensor ys = serial.forward(x, sf, &srec);
    Tensor yo = overlap.forward(x, of, &orec);
    EXPECT_TRUE(ys == yo) << "attention forward";
    expectStatsEqual(sf, of, "attention forward");
    ASSERT_GT(sf.mix.hit, 0);

    ReuseStats sp, op;
    Tensor xtx_s = serial.backwardProjection(x, srec, 0, sp);
    Tensor xtx_o = overlap.backwardProjection(x, orec, 0, op);
    EXPECT_TRUE(xtx_s == xtx_o) << "attention projection";
    expectStatsEqual(sp, op, "attention projection");

    ReuseStats sb, ob;
    Tensor gs = serial.backward(x, grad, srec, 0, sb, &xtx_s);
    Tensor go = overlap.backward(x, grad, orec, 0, ob, &xtx_o);
    EXPECT_TRUE(gs == go) << "attention backward";
    expectStatsEqual(sb, ob, "attention backward");
}

// ---------------------------------------------------------------------
// End-to-end: MobileNet-style inverted residual blocks train with
// forward + dX + dW reuse through the grouped/depthwise descriptors.
// ---------------------------------------------------------------------

TEST(RuntimeTraining, InvertedResidualTrainsWithFullReuse)
{
    Rng rng(kSeed + 60);
    auto net = std::make_unique<Network>();
    net->add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
    net->add(std::make_unique<ReluLayer>());
    net->add(std::make_unique<InvertedResidualBlock>(8, 8, 2, 1, rng, 2));
    net->add(std::make_unique<InvertedResidualBlock>(8, 12, 2, 1, rng, 3));
    net->add(std::make_unique<GlobalAvgPoolLayer>());
    net->add(std::make_unique<DenseLayer>(12, 4, rng, 64));

    Dataset ds = makeImageDataset(16, 4, 3, 8, kSeed + 61, 0.02f);
    MercuryContext ctx(16);
    PipelineConfig pipe = overlapPipe();
    ctx.setPipeline(pipe);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);

    float first = 0, last = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        const float loss =
            net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
        if (epoch == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first) << "reuse-perturbed training must learn";
    // All three passes rode the captured records — including the
    // depthwise convs, whose passes have exactly one filter each.
    EXPECT_GT(ctx.totals().macsSkipped, 0u);
    EXPECT_GT(ctx.backwardTotals().macsSkipped, 0u);
    EXPECT_GT(ctx.weightGradTotals().macsSkipped, 0u);
    EXPECT_GT(ctx.backwardTotals().mix.hit, 0);
}

TEST(RuntimeTraining, DepthwiseReuseMatchesSerialReference)
{
    // The same inverted-residual forward under a serial context and
    // an overlapped one must agree bit for bit (the golden engine
    // equivalences, composed through the NN layer path).
    Dataset ds = makeImageDataset(4, 4, 3, 8, kSeed + 62, 0.02f);

    Rng rng_a(kSeed + 63);
    InvertedResidualBlock a(3, 6, 2, 1, rng_a, 7);
    Rng rng_b(kSeed + 63);
    InvertedResidualBlock b(3, 6, 2, 1, rng_b, 7);

    MercuryContext serial_ctx(16);
    serial_ctx.setPipeline(serialPipe());
    MercuryContext overlap_ctx(16);
    overlap_ctx.setPipeline(overlapPipe());

    Tensor ya = a.forward(ds.inputs, &serial_ctx);
    Tensor yb = b.forward(ds.inputs, &overlap_ctx);
    EXPECT_TRUE(ya == yb) << "max diff " << ya.maxAbsDiff(yb);
}

// ---------------------------------------------------------------------
// Whole-network goldens: a few training steps with forward + dX + dW
// reuse must give the serial run's losses, post-training outputs, and
// all three ReuseStats totals bit for bit on a threaded pool and with
// detection overlapped. Runs under TSan in CI.
// ---------------------------------------------------------------------

using NetBuilder = std::function<std::unique_ptr<Network>(Rng &)>;

/** Everything one network-level comparison looks at. */
struct StepTrace
{
    std::vector<float> losses;
    Tensor out; ///< post-training forward on the same inputs
    ReuseStats fwd, bwd, wgrad;
};

StepTrace
runSteps(const NetBuilder &build, const Dataset &ds,
         const PipelineConfig &pipe, int steps)
{
    Rng rng(4321);
    std::unique_ptr<Network> net = build(rng);
    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setPipeline(pipe);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);
    StepTrace tr;
    for (int s = 0; s < steps; ++s)
        tr.losses.push_back(
            net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx));
    tr.out = net->forward(ds.inputs, &ctx);
    tr.fwd = ctx.totals();
    tr.bwd = ctx.backwardTotals();
    tr.wgrad = ctx.weightGradTotals();
    return tr;
}

void
expectTracesEqual(const StepTrace &a, const StepTrace &b,
                  const char *what)
{
    ASSERT_EQ(a.losses.size(), b.losses.size()) << what;
    for (size_t i = 0; i < a.losses.size(); ++i)
        EXPECT_EQ(a.losses[i], b.losses[i]) << what << " step " << i;
    EXPECT_TRUE(a.out == b.out)
        << what << " outputs, max diff " << a.out.maxAbsDiff(b.out);
    expectStatsEqual(a.fwd, b.fwd, what);
    expectStatsEqual(a.bwd, b.bwd, what);
    expectStatsEqual(a.wgrad, b.wgrad, what);
}

PipelineConfig
pipeOf(int threads, bool overlap)
{
    PipelineConfig pipe;
    pipe.threads = threads;
    pipe.overlap = overlap ? OverlapMode::On : OverlapMode::Off;
    return pipe;
}

TEST(RuntimeNetworkGolden, ConvStackThreadedAndOverlappedMatchSerial)
{
    // conv → relu → conv → pool → GAP → dense head.
    const NetBuilder build = [](Rng &rng) {
        auto net = std::make_unique<Network>();
        net->add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
        net->add(std::make_unique<ReluLayer>());
        net->add(std::make_unique<Conv2dLayer>(8, 8, 3, 1, 1, rng, 2));
        net->add(std::make_unique<MaxPoolLayer>());
        net->add(std::make_unique<GlobalAvgPoolLayer>());
        net->add(std::make_unique<DenseLayer>(8, 3, rng, 3));
        return net;
    };
    const Dataset ds = makeImageDataset(8, 3, 3, 12, 8801, 0.03f);
    const StepTrace golden = runSteps(build, ds, pipeOf(1, false), 3);
    EXPECT_GT(golden.fwd.mix.hit, 0);
    EXPECT_GT(golden.wgrad.mix.vectors, 0);
    expectTracesEqual(golden, runSteps(build, ds, pipeOf(4, false), 3),
                      "threads4");
    expectTracesEqual(golden, runSteps(build, ds, pipeOf(4, true), 3),
                      "overlap4");
}

TEST(RuntimeNetworkGolden, AttentionDenseOverlappedMatchesSerial)
{
    const NetBuilder build = [](Rng &rng) {
        auto net = std::make_unique<Network>();
        net->add(std::make_unique<SelfAttentionLayer>(6, 8, 7, 0.5f));
        net->add(std::make_unique<DenseLayer>(6 * 8, 4, rng, 8));
        return net;
    };
    const Dataset ds = makeTokenDataset(8, 4, 6, 8, 8802, 0.03f);
    const StepTrace golden = runSteps(build, ds, pipeOf(1, false), 3);
    EXPECT_GT(golden.fwd.mix.hit, 0);
    expectTracesEqual(golden, runSteps(build, ds, pipeOf(4, true), 3),
                      "attention overlap4");
}

// ---------------------------------------------------------------------
// Sanitizer stress (TSan CI): hammer the overlapped scheduling of all
// nine ported passes back to back, so TaskGroup joins, the pooled
// replay fan-outs, and the shared MCACHE see real contention.
// ---------------------------------------------------------------------

TEST(RuntimeStress, OverlappedPassesBackToBack)
{
    const ConvSpec spec = convSpec(6, 6, 3, 1, 1, 3);
    Tensor in = similarInput(1, 6, 8, 8, 0.02f, kSeed + 70);
    Rng rng(kSeed + 71);
    Tensor w({6, 2, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 6, 8, 8});
    grad.fillNormal(rng);
    Tensor fc_in = duplicateRows(64, 10, 6, kSeed + 72);
    Tensor fc_w({10, 8});
    fc_w.fillNormal(rng);
    Tensor fc_grad({64, 8});
    fc_grad.fillNormal(rng);
    Tensor attn_x = duplicateRows(32, 12, 5, kSeed + 73);
    Tensor attn_grad({32, 12});
    attn_grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 20, kSeed,
                         overlapPipe());
    ConvReuseEngine conv(fe, 16);
    FcEngine fc(fe, 16);
    AttentionEngine attn(fe, 16);

    for (int iter = 0; iter < 3; ++iter) {
        ReuseStats stats;
        SignatureRecord record;
        Tensor y = conv.forward(in, w, Tensor(), spec, stats, &record);
        conv.backwardInput(grad, w, spec, 8, 8, record, stats);
        conv.backwardWeights(in, grad, spec, record, stats);

        fc.forward(fc_in, fc_w, stats, nullptr, &record);
        fc.backwardInput(fc_grad, fc_w, record, stats);
        fc.backwardWeights(fc_in, fc_grad, record, stats);

        // The attention engine appends to the record (its layer
        // clears once per forward invocation) — use a fresh one.
        SignatureRecord attn_record;
        attn.forward(attn_x, stats, &attn_record);
        ReuseStats pstats;
        Tensor xtx =
            attn.backwardProjection(attn_x, attn_record, 0, pstats);
        attn.backward(attn_x, attn_grad, attn_record, 0, pstats, &xtx);
        (void)y;
    }
    SUCCEED();
}

TEST(RuntimeStress, SerialEqualsOverlappedUnderForcedStealing)
{
    // Forced-stealing configuration: more worker threads than the
    // host has cores and tiny blocks, so the streaming schedule
    // floods the work-stealing deques and thieves migrate blocks on
    // every pass. Outputs AND statistics must stay bit-identical to
    // the serial schedule no matter which worker ran which block —
    // the TSan CI job runs this with stealing instrumented.
    PipelineConfig steal_pipe = serialPipe();
    steal_pipe.blockRows = 4; // many small blocks per pass
    steal_pipe.threads = 8;   // oversubscribes every CI host
    steal_pipe.overlap = OverlapMode::On;

    const ConvSpec spec = convSpec(4, 8, 3, 1, 1, 1);
    Tensor in = similarInput(2, 4, 12, 12, 0.02f, kSeed + 80);
    Rng rng(kSeed + 81);
    Tensor w({8, 4, 3, 3});
    w.fillNormal(rng);
    Tensor grad({2, 8, 12, 12});
    grad.fillNormal(rng);
    Tensor fc_in = duplicateRows(96, 12, 6, kSeed + 82);
    Tensor fc_w({12, 10});
    fc_w.fillNormal(rng);
    Tensor fc_grad({96, 10});
    fc_grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend steal_fe(kSets, kWays, kVersions, 20, kSeed,
                               steal_pipe);
    ConvReuseEngine serial_conv(serial_fe, 16);
    ConvReuseEngine steal_conv(steal_fe, 16);
    FcEngine serial_fc(serial_fe, 16);
    FcEngine steal_fc(steal_fe, 16);

    for (int iter = 0; iter < 4; ++iter) {
        ReuseStats sf, of;
        SignatureRecord srec, orec;
        Tensor ys = serial_conv.forward(in, w, Tensor(), spec, sf, &srec);
        Tensor yo = steal_conv.forward(in, w, Tensor(), spec, of, &orec);
        ASSERT_TRUE(ys == yo) << "iter " << iter
                              << " conv forward, max diff "
                              << ys.maxAbsDiff(yo);
        expectStatsEqual(sf, of, "stealing conv forward");
        ASSERT_GT(sf.mix.hit, 0) << "reuse must engage for the stress";

        ReuseStats sb, ob;
        Tensor gs =
            serial_conv.backwardInput(grad, w, spec, 12, 12, srec, sb);
        Tensor go =
            steal_conv.backwardInput(grad, w, spec, 12, 12, orec, ob);
        ASSERT_TRUE(gs == go) << "iter " << iter
                              << " conv backwardInput, max diff "
                              << gs.maxAbsDiff(go);
        expectStatsEqual(sb, ob, "stealing conv backwardInput");

        ReuseStats sw, ow_;
        Tensor dws = serial_conv.backwardWeights(in, grad, spec, srec, sw);
        Tensor dwo = steal_conv.backwardWeights(in, grad, spec, orec, ow_);
        ASSERT_TRUE(dws == dwo) << "iter " << iter
                                << " conv backwardWeights, max diff "
                                << dws.maxAbsDiff(dwo);
        expectStatsEqual(sw, ow_, "stealing conv backwardWeights");

        ReuseStats sfc, ofc;
        SignatureRecord sfrec, ofrec;
        Tensor fys = serial_fc.forward(fc_in, fc_w, sfc, nullptr, &sfrec);
        Tensor fyo = steal_fc.forward(fc_in, fc_w, ofc, nullptr, &ofrec);
        ASSERT_TRUE(fys == fyo) << "iter " << iter << " fc forward";
        expectStatsEqual(sfc, ofc, "stealing fc forward");

        ReuseStats sfw, ofw;
        Tensor fdws =
            serial_fc.backwardWeights(fc_in, fc_grad, sfrec, sfw);
        Tensor fdwo = steal_fc.backwardWeights(fc_in, fc_grad, ofrec, ofw);
        ASSERT_TRUE(fdws == fdwo) << "iter " << iter
                                  << " fc backwardWeights";
        expectStatsEqual(sfw, ofw, "stealing fc backwardWeights");
    }
}

} // namespace
} // namespace mercury
