/**
 * @file
 * Seeded differential test of the single execution path: the thread
 * count is a schedule knob, so a training run must produce the
 * threads = 1 run's losses, logits, and all three ReuseStats totals
 * (forward, dX replay, dW replay) bit for bit at every thread count.
 *
 * Each seed of a fixed list draws one conv geometry — odd H and W in
 * [5, 13], kernel 1 or 3, stride 1–2, pad 0–1, groups 1, 2, or
 * depthwise, batch 1–3 — and builds conv → relu → conv → GAP → dense
 * around it (the drawn stride and groups apply to the second conv).
 * The network trains two steps with forward, dX, and dW reuse, then
 * runs one more forward for the logits. Corners: threads {2, 3, 4}. A
 * mismatch prints the seed and the geometry, so it replays exactly.
 * Runs under TSan in CI.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int64_t kChannels = 4; // conv width: divisible by 2, depthwise = 4
constexpr int kClasses = 3;
constexpr int kSteps = 2;

/** One drawn network geometry. */
struct Geometry
{
    uint64_t seed = 0;
    int64_t batch = 1;
    int64_t h = 5, w = 5;
    int64_t kernel = 3;
    int64_t stride = 1;
    int64_t pad = 0;
    int64_t groups = 1;
};

std::ostream &
operator<<(std::ostream &os, const Geometry &g)
{
    return os << "seed " << g.seed << ": batch " << g.batch << ", "
              << g.h << "x" << g.w << ", k" << g.kernel << " s"
              << g.stride << " p" << g.pad << " groups " << g.groups;
}

Geometry
drawGeometry(uint64_t seed)
{
    Rng rng(seed);
    Geometry g;
    g.seed = seed;
    g.batch = 1 + static_cast<int64_t>(rng.uniformInt(3));
    g.h = 5 + 2 * static_cast<int64_t>(rng.uniformInt(5));
    g.w = 5 + 2 * static_cast<int64_t>(rng.uniformInt(5));
    g.kernel = rng.uniformInt(2) ? 3 : 1;
    g.stride = 1 + static_cast<int64_t>(rng.uniformInt(2));
    g.pad = static_cast<int64_t>(rng.uniformInt(2));
    const int64_t group_choices[] = {1, 2, kChannels};
    g.groups = group_choices[rng.uniformInt(3)];
    return g;
}

/** Fixed seed list; SeedsCoverEveryConvVariant pins its coverage. */
const std::vector<uint64_t> &
seeds()
{
    static const std::vector<uint64_t> kSeeds = {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
    };
    return kSeeds;
}

/** Class-prototype images plus small noise: similar rows, so reuse
 *  actually engages. */
Dataset
imagesFor(const Geometry &g)
{
    Rng rng(g.seed * 7919 + 1);
    std::vector<Tensor> protos;
    for (int c = 0; c < kClasses; ++c) {
        Tensor p({3, g.h, g.w});
        p.fillNormal(rng);
        protos.push_back(p);
    }
    Dataset ds;
    ds.inputs = Tensor({g.batch, 3, g.h, g.w});
    const int64_t plane = 3 * g.h * g.w;
    for (int64_t b = 0; b < g.batch; ++b) {
        const int label = static_cast<int>(b % kClasses);
        ds.labels.push_back(label);
        const Tensor &p = protos[static_cast<size_t>(label)];
        for (int64_t i = 0; i < plane; ++i)
            ds.inputs[b * plane + i] =
                p[i] + 0.03f * static_cast<float>(rng.normal());
    }
    return ds;
}

struct Trace
{
    std::vector<float> losses;
    Tensor logits;
    ReuseStats fwd, dx, dw;
};

Trace
train(const Geometry &g, const Dataset &ds, int threads)
{
    Rng rng(g.seed);
    Network net;
    net.add(std::make_unique<Conv2dLayer>(3, kChannels, g.kernel, 1,
                                          g.pad, rng, 1));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Conv2dLayer>(kChannels, kChannels, g.kernel,
                                          g.stride, g.pad, rng, 2,
                                          g.groups));
    net.add(std::make_unique<GlobalAvgPoolLayer>());
    net.add(std::make_unique<DenseLayer>(kChannels, kClasses, rng, 3));

    MercuryContext ctx(14, 32, 8, 2, 0xD1FF ^ g.seed);
    PipelineConfig pipe;
    pipe.threads = threads;
    ctx.setPipeline(pipe);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);

    Trace tr;
    for (int s = 0; s < kSteps; ++s)
        tr.losses.push_back(
            net.trainBatch(ds.inputs, ds.labels, 0.05f, &ctx));
    tr.logits = net.forward(ds.inputs, &ctx);
    tr.fwd = ctx.totals();
    tr.dx = ctx.backwardTotals();
    tr.dw = ctx.weightGradTotals();
    return tr;
}

void
expectStatsEqual(const ReuseStats &a, const ReuseStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.mix.vectors, b.mix.vectors) << what;
    EXPECT_EQ(a.mix.hit, b.mix.hit) << what;
    EXPECT_EQ(a.mix.mau, b.mix.mau) << what;
    EXPECT_EQ(a.mix.mnu, b.mix.mnu) << what;
    EXPECT_EQ(a.macsTotal, b.macsTotal) << what;
    EXPECT_EQ(a.macsSkipped, b.macsSkipped) << what;
    EXPECT_EQ(a.channelPasses, b.channelPasses) << what;
}

class StepDifferential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StepDifferential, KnobCornersMatchSerialRun)
{
    const Geometry g = drawGeometry(GetParam());
    SCOPED_TRACE(::testing::Message() << g);
    const Dataset ds = imagesFor(g);
    const Trace golden = train(g, ds, 1);
    // Reuse must engage in all three passes for the comparison to
    // cover the HIT paths.
    ASSERT_GT(golden.fwd.mix.hit, 0);
    ASSERT_GT(golden.dx.mix.hit, 0);
    ASSERT_GT(golden.dw.mix.hit, 0);

    for (const int threads : {2, 3, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Trace tr = train(g, ds, threads);
        ASSERT_EQ(tr.losses.size(), golden.losses.size());
        for (size_t i = 0; i < golden.losses.size(); ++i)
            EXPECT_EQ(tr.losses[i], golden.losses[i])
                << "loss of step " << i;
        EXPECT_TRUE(tr.logits == golden.logits)
            << "logits, max diff " << tr.logits.maxAbsDiff(golden.logits);
        expectStatsEqual(tr.fwd, golden.fwd, "forward stats");
        expectStatsEqual(tr.dx, golden.dx, "dX replay stats");
        expectStatsEqual(tr.dw, golden.dw, "dW replay stats");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StepDifferential, ::testing::ValuesIn(seeds()),
    [](const ::testing::TestParamInfo<uint64_t> &info) {
        return "seed" + std::to_string(info.param);
    });

TEST(StepDifferentialSeeds, SeedsCoverEveryConvVariant)
{
    // The variants a hand-picked golden would cover: dense, strided,
    // grouped, depthwise — plus both kernel sizes, both pads, and a
    // batch above one, so the seed list cannot silently narrow.
    bool dense = false, strided = false, grouped = false,
         depthwise = false, k1 = false, k3 = false, pad0 = false,
         pad1 = false, multi_batch = false;
    for (const uint64_t seed : seeds()) {
        const Geometry g = drawGeometry(seed);
        dense |= g.groups == 1 && g.stride == 1;
        strided |= g.stride == 2;
        grouped |= g.groups == 2;
        depthwise |= g.groups == kChannels;
        k1 |= g.kernel == 1;
        k3 |= g.kernel == 3;
        pad0 |= g.pad == 0;
        pad1 |= g.pad == 1;
        multi_batch |= g.batch > 1;
    }
    EXPECT_TRUE(dense);
    EXPECT_TRUE(strided);
    EXPECT_TRUE(grouped);
    EXPECT_TRUE(depthwise);
    EXPECT_TRUE(k1);
    EXPECT_TRUE(k3);
    EXPECT_TRUE(pad0);
    EXPECT_TRUE(pad1);
    EXPECT_TRUE(multi_batch);
}

} // namespace
} // namespace mercury
