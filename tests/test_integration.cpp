/**
 * @file
 * Cross-module integration tests: the functional reuse engines, the
 * statistical similarity source, the timing models, and the
 * top-level accelerator agreeing with each other across the whole
 * model zoo.
 */

#include <gtest/gtest.h>

#include "baselines/ucnn.hpp"
#include "baselines/zero_pruning.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/mercury_accelerator.hpp"
#include "core/signature_table.hpp"
#include "models/model_zoo.hpp"
#include "workloads/profiles.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

class ModelZooIntegration : public ::testing::TestWithParam<int>
{
  protected:
    ModelConfig model() const
    {
        return allModels()[static_cast<size_t>(GetParam())];
    }
};

TEST_P(ModelZooIntegration, TrainingSimulationProducesSaneSpeedup)
{
    const ModelConfig m = model();
    AcceleratorConfig cfg;
    SyntheticSimilaritySource source(m, cfg, 42, 256, 24);
    MercuryAccelerator acc(cfg, m.layers);
    const TrainingReport rep = acc.train(source, 2, 1, {}, 4);
    EXPECT_GT(rep.speedup(), 1.0) << m.name;
    EXPECT_LT(rep.speedup(), 4.0) << m.name;
    EXPECT_GT(rep.totals.baseline, 0u);
    EXPECT_GE(rep.totals.signature, 0u);
}

TEST_P(ModelZooIntegration, ReportAccountingConsistent)
{
    const ModelConfig m = model();
    AcceleratorConfig cfg;
    SyntheticSimilaritySource source(m, cfg, 43, 256, 24);
    MercuryAccelerator acc(cfg, m.layers);
    const TrainingReport rep = acc.train(source, 2, 1, {}, 0);
    // Per-layer cycles sum to the totals.
    LayerCycles sum;
    for (const auto &lr : rep.layers)
        sum += lr.cycles;
    EXPECT_EQ(sum.baseline, rep.totals.baseline) << m.name;
    EXPECT_EQ(sum.mercuryTotal(), rep.totals.mercuryTotal()) << m.name;
    // On/off counts cover exactly the reusable layers.
    EXPECT_EQ(rep.layersOn + rep.layersOff, m.reusableLayers())
        << m.name;
}

TEST_P(ModelZooIntegration, BaselinesProduceFiniteBounds)
{
    const ModelConfig m = model();
    const double ucnn = ucnnBound(m, 6, 7).speedupBound;
    const double zero = zeroPruningModelBound(m, 8);
    EXPECT_GT(ucnn, 1.0) << m.name;
    EXPECT_LT(ucnn, 2.0) << m.name;
    EXPECT_GT(zero, 1.0) << m.name;
    EXPECT_LT(zero, 3.0) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, ModelZooIntegration,
                         ::testing::Range(0, 12));

TEST(Integration, EngineMixFeedsTimingModelConsistently)
{
    // The hit mix measured by the functional engine, fed to the
    // timing model, must yield the same speedup ordering as running
    // a lower-similarity input through the same pipeline.
    Rng rng(50);
    Tensor w({64, 4, 3, 3});
    w.fillNormal(rng, 0.0f, 0.3f);
    ConvSpec spec;
    spec.inChannels = 4;
    spec.outChannels = 64;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    LayerShape shape = LayerShape::conv("it", 4, 64, 16, 16, 3, 1, 1);
    AcceleratorConfig cfg;
    auto df = Dataflow::create(cfg);

    auto speedup_for = [&](float noise) {
        Dataset ds = makeImageDataset(1, 3, 4, 16, 51, noise);
        MCache cache(64, 16, 4);
        ConvReuseEngine engine(cache, 20, 52);
        ReuseStats stats;
        engine.forward(ds.inputs, w, Tensor(), spec, stats);
        return df->mercuryLayerCycles(shape, 1, stats.mix, 20).speedup();
    };
    const double smooth = speedup_for(0.01f);
    const double noisy = speedup_for(2.0f);
    EXPECT_GT(smooth, noisy);
    EXPECT_GT(smooth, 1.0);
}

TEST(Integration, SignatureTableSpillFitsGlobalBuffer)
{
    // §III-C2 stores forward signatures for the backward pass; the
    // spill volume for a whole VGG13 channel pass must fit the
    // external spill budget with room to spare.
    SignatureTable table;
    const LayerShape conv = vgg13().layers[0];
    for (int64_t i = 0; i < conv.vectorsPerChannel(); ++i)
        table.append(Signature(20), i % 1024);
    EXPECT_GT(table.storageBytes(), 0u);
    // 50k vectors x 7 bytes < 512 KiB external spill budget.
    EXPECT_LT(table.storageBytes(), 512u * 1024u);
}

TEST(Integration, SourceMnuRespondsToCacheOrganization)
{
    // Shrinking the MCACHE must never reduce the MNU fraction the
    // source measures for a capacity-pressured layer.
    const ModelConfig m = vgg13();
    const LayerShape &big = m.layers[1]; // conv2: 224x224, 64ch
    AcceleratorConfig small_cfg;
    small_cfg.mcacheSets = 16;
    small_cfg.mcacheWays = 8;
    AcceleratorConfig large_cfg;
    large_cfg.mcacheSets = 128;
    large_cfg.mcacheWays = 16;
    SyntheticSimilaritySource small_src(m, small_cfg, 44);
    SyntheticSimilaritySource large_src(m, large_cfg, 44);
    const HitMix s = small_src.channelMix(big, 20, Phase::Forward);
    const HitMix l = large_src.channelMix(big, 20, Phase::Forward);
    EXPECT_GE(static_cast<double>(s.mnu) / s.vectors,
              static_cast<double>(l.mnu) / l.vectors);
}

TEST(Integration, WeightStationarySignatureCostIsIncremental)
{
    // §IV: random filters are prepended to the filter list, so the
    // WS signature cost is at most one extra group pass when the
    // filter count is large.
    AcceleratorConfig cfg;
    cfg.dataflow = DataflowKind::WeightStationary;
    auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::conv("ws", 16, 512, 28, 28, 3, 1, 1);
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.5);
    const LayerCycles c = df->mercuryLayerCycles(shape, 1, mix, 20);
    // Signature cost below 3 of the ~29 baseline group passes.
    EXPECT_LT(c.signature, c.baseline / 9);
}

TEST(Integration, EndToEndDeterminism)
{
    // Identical seeds end to end -> identical cycle counts.
    const ModelConfig m = alexnet();
    AcceleratorConfig cfg;
    auto run = [&]() {
        SyntheticSimilaritySource source(m, cfg, 45, 256, 24);
        MercuryAccelerator acc(cfg, m.layers);
        return acc.train(source, 2, 1, {}, 2).totals.mercuryTotal();
    };
    EXPECT_EQ(run(), run());
}

TEST(Integration, FasterWithLargerBatchProportionally)
{
    const ModelConfig m = alexnet();
    AcceleratorConfig cfg;
    SyntheticSimilaritySource source(m, cfg, 46, 256, 24);
    MercuryAccelerator acc(cfg, m.layers);
    const TrainingReport b1 = acc.train(source, 1, 1, {}, 0);
    SyntheticSimilaritySource source2(m, cfg, 46, 256, 24);
    MercuryAccelerator acc2(cfg, m.layers);
    const TrainingReport b8 = acc2.train(source2, 1, 8, {}, 0);
    EXPECT_NEAR(static_cast<double>(b8.totals.baseline) /
                    static_cast<double>(b1.totals.baseline),
                8.0, 0.01);
}

} // namespace
} // namespace mercury
