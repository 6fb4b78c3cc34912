/**
 * @file
 * Tests for the NN training framework: gradient checks through every
 * layer type, block composition, end-to-end training convergence, and
 * MERCURY-hooked execution.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "models/proxies.hpp"
#include "nn/attention_layer.hpp"
#include "nn/blocks.hpp"
#include "nn/network.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

TEST(NnLayers, DenseGradientCheck)
{
    Rng rng(90);
    Network net;
    net.add(std::make_unique<DenseLayer>(6, 4, rng, 1));
    Tensor x({3, 6});
    x.fillNormal(rng);
    std::vector<int> labels{0, 2, 3};

    // Analytical input gradient via backward.
    Tensor logits = net.forward(x);
    Tensor grad;
    softmaxCrossEntropy(logits, labels, grad);
    // DenseLayer::backward returns input grad; run through network
    // manually by constructing a standalone layer.
    Rng rng2(90);
    DenseLayer dense(6, 4, rng2, 1);
    Tensor out = dense.forward(x, nullptr);
    Tensor g;
    softmaxCrossEntropy(out, labels, g);
    Tensor gx = dense.backward(g);

    const float eps = 1e-2f;
    for (int64_t idx : {0L, 7L, 17L}) {
        const float saved = x[idx];
        x[idx] = saved + eps;
        Tensor o1 = dense.forward(x, nullptr);
        Tensor tmp;
        const float hi = softmaxCrossEntropy(o1, labels, tmp);
        x[idx] = saved - eps;
        Tensor o2 = dense.forward(x, nullptr);
        const float lo = softmaxCrossEntropy(o2, labels, tmp);
        x[idx] = saved;
        EXPECT_NEAR(gx[idx], (hi - lo) / (2 * eps), 2e-3f);
    }
}

TEST(NnLayers, ConvLayerShapes)
{
    Rng rng(91);
    Conv2dLayer conv(3, 8, 3, 1, 1, rng, 1);
    Tensor x({2, 3, 8, 8});
    x.fillNormal(rng);
    Tensor y = conv.forward(x, nullptr);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 8, 8, 8}));
    Tensor gx = conv.backward(y);
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_GT(conv.paramCount(), 0u);
}

TEST(NnLayers, StepBeforeBackwardDies)
{
    Rng rng(92);
    Conv2dLayer conv(1, 1, 3, 1, 1, rng, 1);
    EXPECT_DEATH(conv.step(0.1f), "before backward");
}

TEST(NnLayers, FlattenRoundTrips)
{
    FlattenLayer flat;
    Tensor x({2, 3, 4, 4});
    Rng rng(93);
    x.fillNormal(rng);
    Tensor y = flat.forward(x, nullptr);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 48}));
    Tensor gx = flat.backward(y);
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_LT(gx.maxAbsDiff(x), 1e-7f);
}

TEST(NnBlocks, ResidualIdentityShapes)
{
    Rng rng(94);
    ResidualBlock block(8, 8, 1, rng, 3);
    Tensor x({1, 8, 6, 6});
    x.fillNormal(rng);
    Tensor y = block.forward(x, nullptr);
    EXPECT_EQ(y.shape(), x.shape());
    Tensor gx = block.backward(y);
    EXPECT_EQ(gx.shape(), x.shape());
}

TEST(NnBlocks, ResidualProjectionOnStride)
{
    Rng rng(95);
    ResidualBlock block(8, 16, 2, rng, 4);
    Tensor x({1, 8, 6, 6});
    x.fillNormal(rng);
    Tensor y = block.forward(x, nullptr);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{1, 16, 3, 3}));
}

TEST(NnBlocks, ConcatSplitsGradExactly)
{
    Rng rng(96);
    ConcatBlock::Branch b1, b2;
    b1.push_back(std::make_unique<Conv2dLayer>(4, 3, 1, 1, 0, rng, 5));
    b2.push_back(std::make_unique<Conv2dLayer>(4, 5, 3, 1, 1, rng, 6));
    std::vector<ConcatBlock::Branch> branches;
    branches.push_back(std::move(b1));
    branches.push_back(std::move(b2));
    ConcatBlock block(std::move(branches));

    Tensor x({2, 4, 5, 5});
    x.fillNormal(rng);
    Tensor y = block.forward(x, nullptr);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 8, 5, 5}));
    Tensor gx = block.backward(y);
    EXPECT_EQ(gx.shape(), x.shape());
}

TEST(NnBlocks, FireModuleShapes)
{
    Rng rng(97);
    auto fire = makeFireModule(8, 4, 8, rng, 7);
    Tensor x({1, 8, 6, 6});
    x.fillNormal(rng);
    Tensor y = fire->forward(x, nullptr);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{1, 16, 6, 6}));
    EXPECT_GT(fire->paramCount(), 0u);
}

TEST(NnAttention, ForwardMatchesExplicitProduct)
{
    Rng rng(98);
    SelfAttentionLayer att(4, 6, 8, 1.0f);
    Tensor x({1, 24});
    x.fillNormal(rng);
    Tensor y = att.forward(x, nullptr);

    Tensor xi({4, 6});
    for (int64_t i = 0; i < 24; ++i)
        xi[i] = x[i];
    Tensor ref = matmul(matmulTransposeB(xi, xi), xi);
    for (int64_t i = 0; i < 24; ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-4f);
}

TEST(NnAttention, GradientCheck)
{
    Rng rng(99);
    SelfAttentionLayer att(3, 4, 9, 0.5f);
    Tensor x({1, 12});
    x.fillNormal(rng);
    std::vector<int> labels{1};

    // Head: sum of outputs 0..3 as logits... simpler: direct loss on
    // the first 4 outputs via softmax.
    auto loss_of = [&](Tensor &inp) {
        Tensor y = att.forward(inp, nullptr);
        Tensor logits({1, 4});
        for (int64_t j = 0; j < 4; ++j)
            logits.at2(0, j) = y.at2(0, j);
        Tensor g;
        return softmaxCrossEntropy(logits, labels, g);
    };

    Tensor y = att.forward(x, nullptr);
    Tensor logits({1, 4});
    for (int64_t j = 0; j < 4; ++j)
        logits.at2(0, j) = y.at2(0, j);
    Tensor g;
    softmaxCrossEntropy(logits, labels, g);
    Tensor gy({1, 12});
    for (int64_t j = 0; j < 4; ++j)
        gy.at2(0, j) = g.at2(0, j);
    Tensor gx = att.backward(gy);

    const float eps = 1e-2f;
    for (int64_t idx : {0L, 5L, 11L}) {
        const float saved = x[idx];
        x[idx] = saved + eps;
        const float hi = loss_of(x);
        x[idx] = saved - eps;
        const float lo = loss_of(x);
        x[idx] = saved;
        EXPECT_NEAR(gx[idx], (hi - lo) / (2 * eps), 5e-3f)
            << "index " << idx;
    }
}

TEST(NnTraining, LossDecreasesOnSmallProblem)
{
    Rng rng(100);
    Dataset ds = makeImageDataset(64, 4, 3, 12, 101, 0.05f);
    auto net = buildProxy("AlexNet", rng, 4);
    float first = 0, last = 0;
    for (int epoch = 0; epoch < 8; ++epoch) {
        const float loss =
            net->trainBatch(ds.inputs, ds.labels, 0.05f);
        if (epoch == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
}

TEST(NnTraining, AccuracyAboveChanceAfterTraining)
{
    Rng rng(102);
    Dataset train = makeImageDataset(96, 4, 3, 12, 103, 0.05f);
    Dataset val = makeImageDataset(48, 4, 3, 12, 104, 0.05f);
    auto net = buildProxy("VGG-13", rng, 4);
    for (int epoch = 0; epoch < 10; ++epoch)
        net->trainBatch(train.inputs, train.labels, 0.05f);
    EXPECT_GT(net->accuracy(val.inputs, val.labels), 0.4);
}

TEST(NnTraining, MercuryContextAccumulatesStats)
{
    Rng rng(105);
    Dataset ds = makeImageDataset(16, 4, 3, 12, 106, 0.02f);
    auto net = buildProxy("AlexNet", rng, 4);
    MercuryContext ctx(16);
    net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
    EXPECT_GT(ctx.totals().macsTotal, 0u);
    EXPECT_GT(ctx.totals().mix.vectors, 0);
    EXPECT_GT(ctx.totals().macsSkipped, 0u); // smooth inputs do hit
}

TEST(NnTraining, MercuryTrainingStaysClose)
{
    // Same seed, same data: reuse-perturbed training should stay in
    // the same accuracy ballpark as exact training (Fig. 13).
    Dataset train = makeImageDataset(96, 4, 3, 12, 107, 0.05f);
    Dataset val = makeImageDataset(48, 4, 3, 12, 108, 0.05f);

    Rng rng_a(109);
    auto base = buildProxy("AlexNet", rng_a, 4);
    for (int e = 0; e < 10; ++e)
        base->trainBatch(train.inputs, train.labels, 0.05f);
    const double base_acc = base->accuracy(val.inputs, val.labels);

    Rng rng_b(109);
    auto merc = buildProxy("AlexNet", rng_b, 4);
    MercuryContext ctx(20);
    for (int e = 0; e < 10; ++e)
        merc->trainBatch(train.inputs, train.labels, 0.05f, &ctx);
    const double merc_acc = merc->accuracy(val.inputs, val.labels);

    EXPECT_GT(base_acc, 0.4);
    EXPECT_NEAR(merc_acc, base_acc, 0.25);
}

TEST(NnProxies, AllFamiliesBuildAndForward)
{
    for (const auto &family : proxyFamilies()) {
        Rng rng(110);
        auto net = buildProxy(family, rng, 5);
        Tensor x;
        if (proxyUsesTokens(family)) {
            Dataset ds = makeTokenDataset(4, 5, kProxySeqLen,
                                          kProxyEmbedDim, 111);
            x = ds.inputs;
        } else {
            Dataset ds = makeImageDataset(4, 5, kProxyImageChannels,
                                          kProxyImageHw, 112);
            x = ds.inputs;
        }
        Tensor y = net->forward(x);
        EXPECT_EQ(y.dim(0), 4) << family;
        EXPECT_EQ(y.dim(1), 5) << family;
        EXPECT_GT(net->paramCount(), 0u) << family;
    }
}

TEST(NnProxies, UnknownFamilyDies)
{
    Rng rng(113);
    EXPECT_DEATH(buildProxy("NotANet", rng), "unknown proxy family");
}

// ---- Step description: Network::describeStep's timing stack --------

/** Compare a described stack entry against an expected LayerShape. */
void
expectSameShape(const LayerShape &got, const LayerShape &want)
{
    EXPECT_EQ(got.type, want.type) << want.name;
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.inChannels, want.inChannels) << want.name;
    EXPECT_EQ(got.outChannels, want.outChannels) << want.name;
    EXPECT_EQ(got.inH, want.inH) << want.name;
    EXPECT_EQ(got.inW, want.inW) << want.name;
    EXPECT_EQ(got.kernel, want.kernel) << want.name;
    EXPECT_EQ(got.stride, want.stride) << want.name;
    EXPECT_EQ(got.pad, want.pad) << want.name;
    EXPECT_EQ(got.groups, want.groups) << want.name;
    EXPECT_EQ(got.inFeatures, want.inFeatures) << want.name;
    EXPECT_EQ(got.outFeatures, want.outFeatures) << want.name;
    EXPECT_EQ(got.seqLen, want.seqLen) << want.name;
    EXPECT_EQ(got.embedDim, want.embedDim) << want.name;
}

void
expectStack(const std::vector<LayerShape> &got,
            const std::vector<LayerShape> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        expectSameShape(got[i], want[i]);
}

TEST(DescribeStep, ConvChainCostsThePoolBetweenConvs)
{
    // conv → relu → conv → pool → GAP → dense: ReLU costs nothing and
    // GAP is opaque, so the stack is both convs with resolved dims,
    // the pool on the second conv's output, and the dense head.
    Rng rng(15);
    Network net;
    net.add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Conv2dLayer>(8, 8, 3, 1, 1, rng, 2));
    net.add(std::make_unique<MaxPoolLayer>());
    net.add(std::make_unique<GlobalAvgPoolLayer>());
    net.add(std::make_unique<DenseLayer>(8, 3, rng, 3));
    expectStack(net.describeStep(Tensor({4, 3, 12, 12})),
                {LayerShape::conv("op0", 3, 8, 12, 12, 3, 1, 1),
                 LayerShape::conv("op1", 8, 8, 12, 12, 3, 1, 1),
                 LayerShape::pool("op2", 8, 12, 12, 2, 2),
                 LayerShape::fc("op3", 8, 3)});
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

TEST(DescribeStep, OpaqueLeadLeavesConvInputDimsUnresolved)
{
    // The opaque op drops shape tracking, so the conv behind it has no
    // input dims to price and is left out; the dense head needs no
    // tracked shape.
    Rng rng(14);
    Network net;
    net.add(std::make_unique<OpaqueIdentityLayer>());
    net.add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
    net.add(std::make_unique<GlobalAvgPoolLayer>());
    net.add(std::make_unique<DenseLayer>(8, 3, rng, 2));
    expectStack(net.describeStep(Tensor({8, 3, 12, 12})),
                {LayerShape::fc("op0", 8, 3)});
}

TEST(DescribeStep, ServedFcModel)
{
    // The serving tenants' model: dense → relu → dense on (N, D) rows.
    Rng rng(16);
    Network net;
    net.add(std::make_unique<DenseLayer>(16, 24, rng, 1));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<DenseLayer>(24, 4, rng, 2));
    expectStack(net.describeStep(Tensor({6, 16})),
                {LayerShape::fc("op0", 16, 24),
                 LayerShape::fc("op1", 24, 4)});
}

} // namespace
} // namespace mercury
