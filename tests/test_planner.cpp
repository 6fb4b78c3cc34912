/**
 * @file
 * RuntimePlanner tests (core/runtime_planner.hpp): the compiled
 * StepPlan is the step descriptor the timing models replay, so its
 * contract is geometry — per-layer pass shapes, fused conv→conv edges
 * through channelwise transforms, and the once-per-shape knob
 * resolution the frontends memoize. Plus the batched-submit
 * executors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/runtime_planner.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "util/executors.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

// ---- Knob resolution: once per shape, not once per step ------------

TEST(PlannerKnobs, ResolvedOncePerShape)
{
    // conv → relu → conv → pool → GAP → dense head.
    Rng rng(15);
    Network net;
    net.add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Conv2dLayer>(8, 8, 3, 1, 1, rng, 2));
    net.add(std::make_unique<MaxPoolLayer>());
    net.add(std::make_unique<GlobalAvgPoolLayer>());
    net.add(std::make_unique<DenseLayer>(8, 3, rng, 3));
    const Dataset ds = makeImageDataset(8, 3, 3, 12, 8801, 0.03f);
    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);

    net.trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
    const int64_t after_first = ctx.frontendFor(1).knobResolutions() +
                                ctx.frontendFor(2).knobResolutions() +
                                ctx.frontendFor(3).knobResolutions();
    EXPECT_GT(after_first, 0);
    for (int s = 0; s < 4; ++s)
        net.trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
    // Steady state: every later step replays the resolved knobs.
    EXPECT_EQ(ctx.frontendFor(1).knobResolutions() +
                  ctx.frontendFor(2).knobResolutions() +
                  ctx.frontendFor(3).knobResolutions(),
              after_first);
}

// ---- Plan compilation shape ----------------------------------------

TEST(PlannerCompile, GeometryAndEdges)
{
    // conv(3→8, 12x12) → relu → conv(8→8) → pool → conv(8→16, 6x6)
    StepDescBuilder b({4, 3, 12, 12});
    ConvSpec c1;
    c1.inChannels = 3;
    c1.outChannels = 8;
    c1.kernelH = 3;
    c1.kernelW = 3;
    c1.stride = 1;
    c1.pad = 1;
    ConvSpec c2 = c1;
    c2.inChannels = 8;
    ConvSpec c3 = c2;
    c3.outChannels = 16;
    b.conv(1, c1);
    b.relu();
    b.conv(2, c2);
    b.maxPool2x2();
    b.conv(3, c3);

    PlanConfig cfg;
    cfg.sigBits = 14;
    cfg.sets = 32;
    cfg.ways = 8;
    cfg.dataVersions = 2;

    std::shared_ptr<const StepPlan> plan =
        RuntimePlanner::compile(b, cfg);
    ASSERT_TRUE(plan->plannable);
    ASSERT_EQ(plan->layers.size(), 3u);
    EXPECT_EQ(plan->fusedEdges, 2);

    const LayerPlan *lp1 = plan->layerPlan(1);
    ASSERT_NE(lp1, nullptr);
    EXPECT_EQ(lp1->rows, 12 * 12);
    EXPECT_EQ(lp1->vecDim, 3 * 3);
    EXPECT_EQ(lp1->passes, 4 * 3); // batch * inChannels
    EXPECT_EQ(lp1->inFlight, 8);
    EXPECT_EQ(lp1->nextConv, 1);
    ASSERT_EQ(lp1->edgeTransforms.size(), 1u);
    EXPECT_EQ(lp1->edgeTransforms[0], StepOpKind::Relu);

    const LayerPlan *lp3 = plan->layerPlan(3);
    ASSERT_NE(lp3, nullptr);
    EXPECT_EQ(lp3->rows, 6 * 6); // pool halved the spatial dims
    EXPECT_EQ(lp3->prevConv, 1);
}

/** Identity layer that keeps the default (opaque) step description. */
class OpaqueIdentityLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, MercuryContext *) override
    {
        return x;
    }
    std::string name() const override { return "opaque-identity"; }

  protected:
    Tensor backwardImpl(const Tensor &grad, MercuryContext *) override
    {
        return grad;
    }
};

TEST(PlannerCompile, OpaqueOpMakesStepUnplannable)
{
    // An opaque op breaks shape tracking, so the conv behind it makes
    // the whole step unplannable: the plan exports no pass
    // descriptors and the timing models fall back to per-layer
    // shapes. Execution never consults the plan, so the conv still
    // runs its reuse passes.
    Rng rng(14);
    Network net;
    net.add(std::make_unique<OpaqueIdentityLayer>());
    net.add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
    net.add(std::make_unique<GlobalAvgPoolLayer>());
    net.add(std::make_unique<DenseLayer>(8, 3, rng, 2));
    const Dataset ds = makeImageDataset(8, 3, 3, 12, 8802, 0.03f);

    PlanConfig cfg;
    cfg.sigBits = 14;
    cfg.sets = 32;
    cfg.ways = 8;
    cfg.dataVersions = 2;

    const StepDescBuilder desc = net.describeStep(ds.inputs);
    EXPECT_FALSE(desc.plannable());
    std::shared_ptr<const StepPlan> plan =
        RuntimePlanner::compile(desc, cfg);
    EXPECT_FALSE(plan->plannable);
    EXPECT_TRUE(exportPassDescriptors(*plan).empty());

    MercuryContext ctx(14, 32, 8, 2, 0xFEED);
    net.forward(ds.inputs, &ctx);
    EXPECT_GT(ctx.totals().mix.vectors, 0);
}

// ---- Batched submission (util) -------------------------------------

TEST(PlannerExecutors, SubmitBatchRunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 100; ++i)
        tasks.push_back([&ran] { ++ran; });
    pool.submitBatch(std::move(tasks));
    // Drain through a follow-up group: the pool runs FIFO per worker,
    // so joining a full-width wave after the batch bounds the wait.
    TaskGroup tg(&pool);
    for (int i = 0; i < 4; ++i)
        tg.run([] {});
    tg.wait();
    // The batch landed before the group's tasks in queue order, but
    // workers race; spin briefly for the last stragglers.
    while (ran.load() < 100) {
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(PlannerExecutors, RunBatchJoinsAndRunsInlineWithoutPool)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    TaskGroup tg(&pool);
    tg.runBatch(64, [&ran] { ++ran; });
    tg.wait();
    EXPECT_EQ(ran.load(), 64);

    int inline_ran = 0;
    TaskGroup inline_tg(nullptr);
    inline_tg.runBatch(5, [&inline_ran] { ++inline_ran; });
    inline_tg.wait();
    EXPECT_EQ(inline_ran, 5);

    ThreadPool empty(0);
    std::atomic<int> serial{0};
    TaskGroup serial_tg(&empty);
    serial_tg.runBatch(7, [&serial] { ++serial; });
    serial_tg.wait();
    EXPECT_EQ(serial.load(), 7);
}

} // namespace
} // namespace mercury
