/**
 * @file
 * Integration tests for the top-level MERCURY accelerator: training
 * simulations over small models with controlled similarity sources,
 * backward signature reuse, and adaptation end to end.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/mercury_accelerator.hpp"

namespace mercury {
namespace {

/** Fixed-fraction similarity source for deterministic tests. */
class FixedSource : public SimilaritySource
{
  public:
    explicit FixedSource(double hit_frac, double mnu_frac = 0.0)
        : hitFrac_(hit_frac), mnuFrac_(mnu_frac)
    {
    }

    HitMix
    channelMix(const LayerShape &shape, int sig_bits, Phase phase) override
    {
        ++queries_;
        lastBits_ = sig_bits;
        lastPhase_ = phase;
        return HitMix::fromFractions(shape.vectorsPerImage(), hitFrac_,
                                     mnuFrac_);
    }

    int queries() const { return queries_; }
    int lastBits() const { return lastBits_; }
    Phase lastPhase() const { return lastPhase_; }

  private:
    double hitFrac_;
    double mnuFrac_;
    int queries_ = 0;
    int lastBits_ = 20;
    Phase lastPhase_ = Phase::Forward;
};

std::vector<LayerShape>
tinyCnn()
{
    return {
        LayerShape::conv("conv1", 3, 64, 32, 32, 3, 1, 1),
        LayerShape::conv("conv2", 64, 128, 32, 32, 3, 1, 1),
        LayerShape::pool("pool1", 128, 32, 32, 2, 2),
        LayerShape::conv("conv3", 128, 128, 16, 16, 3, 1, 1),
        LayerShape::fc("fc1", 128 * 16 * 16, 256),
    };
}

AcceleratorConfig
rsConfig()
{
    AcceleratorConfig cfg;
    cfg.dataflow = DataflowKind::RowStationary;
    return cfg;
}

TEST(Accelerator, HighSimilarityTrainsFaster)
{
    MercuryAccelerator acc(rsConfig(), tinyCnn());
    FixedSource source(0.6);
    const TrainingReport rep = acc.train(source, 4, 8);
    EXPECT_GT(rep.speedup(), 1.2);
    EXPECT_EQ(rep.layers.size(), 5u);
}

TEST(Accelerator, ZeroSimilarityIsNotFaster)
{
    MercuryAccelerator acc(rsConfig(), tinyCnn());
    FixedSource source(0.0);
    const TrainingReport rep = acc.train(source, 4, 8);
    EXPECT_LE(rep.speedup(), 1.0);
}

TEST(Accelerator, SpeedupMonotonicInSimilarity)
{
    double prev = 0.0;
    for (double h : {0.2, 0.4, 0.6, 0.8}) {
        MercuryAccelerator acc(rsConfig(), tinyCnn());
        FixedSource source(h);
        const double s = acc.train(source, 2, 8).speedup();
        EXPECT_GT(s, prev) << "hit fraction " << h;
        prev = s;
    }
}

TEST(Accelerator, BaselineBatchMatchesReportTotals)
{
    MercuryAccelerator acc(rsConfig(), tinyCnn());
    FixedSource source(0.5);
    const int batches = 3;
    const int64_t batch = 4;
    const TrainingReport rep = acc.train(source, batches, batch);
    EXPECT_EQ(rep.totals.baseline,
              static_cast<uint64_t>(batches) *
                  acc.baselineBatchCycles(batch));
}

TEST(Accelerator, AutoPipelineKnobsTrainLikeTheDefaults)
{
    // 0 is the documented auto value of the thread knob
    // (sim/config.hpp). The simulator reads no pipeline knob, so a run
    // with it at auto prices every batch as the defaults do.
    AcceleratorConfig auto_cfg = rsConfig();
    auto_cfg.pipelineThreads = 0;
    MercuryAccelerator acc(auto_cfg, tinyCnn());
    MercuryAccelerator ref(rsConfig(), tinyCnn());
    FixedSource source(0.5), ref_source(0.5);
    const TrainingReport rep = acc.train(source, 2, 4);
    const TrainingReport want = ref.train(ref_source, 2, 4);
    EXPECT_EQ(rep.totals.baseline, want.totals.baseline);
    EXPECT_EQ(rep.totals.mercuryTotal(), want.totals.mercuryTotal());
    EXPECT_EQ(rep.speedup(), want.speedup());
}

TEST(Accelerator, PoolLayersNeverQueried)
{
    // Source counts queries; pool layers must not ask for mixes.
    std::vector<LayerShape> model = {
        LayerShape::pool("pool", 8, 16, 16, 2, 2),
    };
    MercuryAccelerator acc(rsConfig(), model);
    FixedSource source(0.9);
    acc.train(source, 2, 4);
    EXPECT_EQ(source.queries(), 0);
}

TEST(Accelerator, QueriesPerBatchCoverPhases)
{
    // conv1 (fwd + dW), conv2 (fwd + dW + dX): 5 queries per batch.
    std::vector<LayerShape> model = {
        LayerShape::conv("conv1", 3, 64, 16, 16, 3, 1, 1),
        LayerShape::conv("conv2", 64, 64, 16, 16, 3, 1, 1),
    };
    MercuryAccelerator acc(rsConfig(), model);
    FixedSource source(0.5);
    acc.train(source, 1, 4);
    EXPECT_EQ(source.queries(), 5);
}

TEST(Accelerator, BackwardSignatureReuseReducesCost)
{
    // Two stacked same-kernel convs let conv1's dX pass reuse conv2's
    // forward signatures... the reuse applies to the *producer* layer
    // when the consumer matches, so compare a matched chain vs a
    // mismatched chain.
    std::vector<LayerShape> matched = {
        LayerShape::conv("a", 16, 64, 16, 16, 3, 1, 1),
        LayerShape::conv("b", 64, 64, 16, 16, 3, 1, 1),
        LayerShape::conv("c", 64, 64, 16, 16, 3, 1, 1),
    };
    std::vector<LayerShape> mismatched = {
        LayerShape::conv("a", 16, 64, 16, 16, 3, 1, 1),
        LayerShape::conv("b", 64, 64, 16, 16, 5, 1, 2),
        LayerShape::conv("c", 64, 64, 16, 16, 3, 1, 1),
    };
    FixedSource s1(0.5), s2(0.5);
    MercuryAccelerator acc1(rsConfig(), matched);
    MercuryAccelerator acc2(rsConfig(), mismatched);
    const auto r1 = acc1.train(s1, 1, 4);
    const auto r2 = acc2.train(s2, 1, 4);
    // Matched chain spends a smaller fraction on signatures.
    EXPECT_LT(r1.signatureFraction(), r2.signatureFraction());
}

TEST(Accelerator, UnprofitableLayersTurnOff)
{
    // A conv with very few filters cannot amortize signature passes;
    // the adaptive controller must turn it off within stoppageT
    // batches, after which its cycles match the baseline.
    std::vector<LayerShape> model = {
        LayerShape::conv("small", 8, 4, 16, 16, 3, 1, 1),
    };
    AcceleratorConfig cfg = rsConfig();
    cfg.stoppageT = 2;
    MercuryAccelerator acc(cfg, model);
    FixedSource source(0.1);
    const TrainingReport rep = acc.train(source, 10, 4);
    EXPECT_EQ(rep.layersOff, 1);
    EXPECT_EQ(rep.layersOn, 0);
    EXPECT_FALSE(rep.layers[0].detectionOn);
}

TEST(Accelerator, ProfitableLayersStayOn)
{
    MercuryAccelerator acc(rsConfig(), tinyCnn());
    FixedSource source(0.7);
    const TrainingReport rep = acc.train(source, 10, 4);
    EXPECT_EQ(rep.layersOff, 0);
    EXPECT_EQ(rep.layersOn, 4); // pool is not counted
}

TEST(Accelerator, SignatureBitsGrowOnDefaultLossCurve)
{
    // The default loss curve plateaus, so bits must grow above the
    // initial value over a long run.
    AcceleratorConfig cfg = rsConfig();
    cfg.plateauK = 3;
    MercuryAccelerator acc(cfg, tinyCnn());
    FixedSource source(0.6);
    const TrainingReport rep = acc.train(source, 60, 2);
    EXPECT_GT(rep.finalSignatureBits, cfg.initialSignatureBits);
    EXPECT_LE(rep.finalSignatureBits, cfg.maxSignatureBits);
}

TEST(Accelerator, CustomLossCurveControlsGrowth)
{
    AcceleratorConfig cfg = rsConfig();
    cfg.plateauK = 2;
    MercuryAccelerator acc(cfg, tinyCnn());
    FixedSource source(0.6);
    // Strictly decreasing loss: no plateau, no growth.
    const TrainingReport rep = acc.train(
        source, 30, 2, [](int b) { return 10.0 * std::pow(0.9, b); });
    EXPECT_EQ(rep.finalSignatureBits, cfg.initialSignatureBits);
}

TEST(Accelerator, SignatureFractionSmallForRealisticShapes)
{
    // Fig. 14b: signatures are a small fraction of total cycles.
    MercuryAccelerator acc(rsConfig(), tinyCnn());
    FixedSource source(0.5);
    const TrainingReport rep = acc.train(source, 2, 8);
    EXPECT_LT(rep.signatureFraction(), 0.25);
    EXPECT_GT(rep.signatureFraction(), 0.0);
}

TEST(Accelerator, WorksAcrossDataflows)
{
    for (DataflowKind kind :
         {DataflowKind::RowStationary, DataflowKind::WeightStationary,
          DataflowKind::InputStationary}) {
        AcceleratorConfig cfg;
        cfg.dataflow = kind;
        MercuryAccelerator acc(cfg, tinyCnn());
        FixedSource source(0.6);
        const TrainingReport rep = acc.train(source, 2, 4);
        EXPECT_GT(rep.speedup(), 1.0) << dataflowName(kind);
    }
}

TEST(Accelerator, WeightGradReuseReducesCost)
{
    // The dW pass rides the forward record instead of hashing
    // gradient vectors anew: fewer detection queries (no
    // BackwardWeight mixes) and fewer cycles.
    auto cfg = rsConfig();
    MercuryAccelerator base_acc(cfg, tinyCnn());
    FixedSource base_source(0.6);
    const TrainingReport base = base_acc.train(base_source, 3, 4);

    cfg.weightGradReuse = true;
    MercuryAccelerator reuse_acc(cfg, tinyCnn());
    FixedSource reuse_source(0.6);
    const TrainingReport reuse = reuse_acc.train(reuse_source, 3, 4);

    EXPECT_LT(reuse.totals.mercuryTotal(), base.totals.mercuryTotal());
    EXPECT_GT(reuse.speedup(), base.speedup());
    EXPECT_LT(reuse_source.queries(), base_source.queries())
        << "replayed dW must not query BackwardWeight mixes";
}

TEST(Accelerator, EmptyModelDies)
{
    EXPECT_DEATH(MercuryAccelerator(rsConfig(), {}), "at least one");
}

TEST(Accelerator, AttentionModelTrains)
{
    std::vector<LayerShape> model = {
        LayerShape::attention("att1", 64, 128),
        LayerShape::fc("fc", 128, 64),
    };
    MercuryAccelerator acc(rsConfig(), model);
    FixedSource source(0.5);
    const TrainingReport rep = acc.train(source, 2, 16);
    EXPECT_GT(rep.speedup(), 1.0);
}

} // namespace
} // namespace mercury
