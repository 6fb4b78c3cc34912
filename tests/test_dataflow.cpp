/**
 * @file
 * Tests for the dataflow timing models: baseline formulas, MERCURY
 * savings as a function of the HIT/MAU/MNU mix, sync vs async
 * ordering, and cross-dataflow invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/cycle_model.hpp"
#include "sim/dataflow.hpp"

namespace mercury {
namespace {

AcceleratorConfig
defaultConfig(DataflowKind kind = DataflowKind::RowStationary)
{
    AcceleratorConfig cfg;
    cfg.dataflow = kind;
    return cfg;
}

LayerShape
smallConv()
{
    // 8 channels of 16x16 with 16 3x3 filters.
    return LayerShape::conv("conv", 8, 16, 16, 16, 3);
}

TEST(HitMix, FromFractionsConsistent)
{
    HitMix m = HitMix::fromFractions(100, 0.6, 0.1);
    EXPECT_EQ(m.vectors, 100);
    EXPECT_EQ(m.hit, 60);
    EXPECT_EQ(m.mnu, 10);
    EXPECT_EQ(m.mau, 30);
    EXPECT_TRUE(m.consistent());
}

TEST(HitMix, InvalidFractionsDie)
{
    EXPECT_DEATH(HitMix::fromFractions(10, 0.8, 0.4), "invalid");
}

TEST(HitMix, ScaledToPreservesFractions)
{
    HitMix m = HitMix::fromFractions(100, 0.5, 0.2);
    HitMix s = m.scaledTo(1000);
    EXPECT_EQ(s.vectors, 1000);
    EXPECT_NEAR(s.hitFraction(), 0.5, 0.01);
    EXPECT_TRUE(s.consistent());
}

TEST(HitMix, ScaledFromEmptyIsAllMau)
{
    HitMix empty;
    HitMix s = empty.scaledTo(10);
    EXPECT_EQ(s.mau, 10);
    EXPECT_TRUE(s.consistent());
}

TEST(LayerCyclesStruct, SpeedupAndAccumulate)
{
    LayerCycles c;
    c.baseline = 200;
    c.computation = 80;
    c.signature = 20;
    EXPECT_DOUBLE_EQ(c.speedup(), 2.0);
    LayerCycles d = c;
    d += c;
    EXPECT_EQ(d.baseline, 400u);
    EXPECT_EQ(d.mercuryTotal(), 200u);
}

TEST(DataflowFactory, CreatesRequestedKind)
{
    for (auto kind :
         {DataflowKind::RowStationary, DataflowKind::WeightStationary,
          DataflowKind::InputStationary}) {
        auto df = Dataflow::create(defaultConfig(kind));
        EXPECT_EQ(df->kind(), kind);
    }
}

TEST(RowStationary, BaselineMatchesClosedForm)
{
    auto cfg = defaultConfig();
    RowStationaryDataflow df(cfg);
    LayerShape shape = smallConv();
    // 168 PEs / 3 rows = 56 sets; 14x14 = 196 vectors -> 4 per set.
    const uint64_t per_filter = pipelinedPassCycles(4, 3);
    const uint64_t expect = 1ull * 8 * 16 * per_filter; // batch*cin*cout
    EXPECT_EQ(df.baselineLayerCycles(shape, 1), expect);
}

TEST(RowStationary, NumPESets)
{
    RowStationaryDataflow df(defaultConfig());
    EXPECT_EQ(df.numPESets(3), 56);
    EXPECT_EQ(df.numPESets(5), 33);
    EXPECT_EQ(df.numPESets(1), 168);
}

TEST(RowStationary, ZeroHitsCostsAtLeastBaselinePlusSignatures)
{
    auto cfg = defaultConfig();
    cfg.asyncDesign = false;
    RowStationaryDataflow df(cfg);
    LayerShape shape = smallConv();
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.0);
    LayerCycles c = df.mercuryLayerCycles(shape, 1, mix, 20);
    EXPECT_EQ(c.computation, c.baseline);
    EXPECT_GT(c.signature, 0u);
    EXPECT_GT(c.mercuryTotal(), c.baseline);
}

TEST(RowStationary, AllHitsMuchCheaperThanBaseline)
{
    auto cfg = defaultConfig();
    RowStationaryDataflow df(cfg);
    // Enough filters that the 20 signature passes amortize (real conv
    // layers have 64-512 filters per channel).
    LayerShape shape = LayerShape::conv("conv", 8, 128, 16, 16, 3);
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 1.0);
    LayerCycles c = df.mercuryLayerCycles(shape, 1, mix, 20);
    EXPECT_LT(c.mercuryTotal(), c.baseline / 2);
}

TEST(OverlapAccounting, HidesSignatureCyclesUnderCompute)
{
    // Fig. 8: with overlapDetection, only signature work exceeding
    // the layer's compute time stays on the critical path.
    for (const DataflowKind kind :
         {DataflowKind::RowStationary, DataflowKind::WeightStationary,
          DataflowKind::InputStationary}) {
        auto cfg = defaultConfig(kind);
        auto overlap_cfg = cfg;
        overlap_cfg.overlapDetection = true;
        const auto serial = Dataflow::create(cfg);
        const auto overlapped = Dataflow::create(overlap_cfg);
        LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
        const HitMix mix =
            HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);

        const LayerCycles s = serial->mercuryLayerCycles(shape, 1, mix, 20);
        const LayerCycles o =
            overlapped->mercuryLayerCycles(shape, 1, mix, 20);
        // Compute, baseline, and cache overhead are untouched; the
        // exposed signature cost is exactly the excess over compute.
        EXPECT_EQ(o.computation, s.computation);
        EXPECT_EQ(o.baseline, s.baseline);
        EXPECT_EQ(o.cacheOverhead, s.cacheOverhead);
        EXPECT_EQ(o.signature,
                  s.signature - std::min(s.signature, s.computation));
        EXPECT_LE(o.mercuryTotal(), s.mercuryTotal());
        EXPECT_GT(s.signature, 0u); // something was actually hidden
    }
}

TEST(OverlapAccounting, SavedSignaturesStayFree)
{
    auto cfg = defaultConfig();
    cfg.overlapDetection = true;
    RowStationaryDataflow df(cfg);
    LayerShape shape = smallConv();
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);
    const LayerCycles c =
        df.mercuryLayerCycles(shape, 1, mix, 20, /*saved=*/true);
    EXPECT_EQ(c.signature, 0u);
}

TEST(BackwardReplay, WithoutKnobBackwardCostsTheBaseline)
{
    for (const DataflowKind kind :
         {DataflowKind::RowStationary, DataflowKind::WeightStationary,
          DataflowKind::InputStationary}) {
        auto cfg = defaultConfig(kind);
        ASSERT_FALSE(cfg.backwardReuse);
        const auto df = Dataflow::create(cfg);
        LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
        const HitMix mix =
            HitMix::fromFractions(shape.vectorsPerChannel(), 0.86);
        const LayerCycles c = df->backwardLayerCycles(shape, 1, mix, 20);
        EXPECT_EQ(c.mercuryTotal(), c.baseline);
        EXPECT_EQ(c.signature, 0u);
        EXPECT_EQ(c.cacheOverhead, 0u);
        EXPECT_DOUBLE_EQ(c.speedup(), 1.0);
    }
}

TEST(BackwardReplay, ReplayChargesTableReadsNotRegeneration)
{
    auto cfg = defaultConfig();
    cfg.backwardReuse = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);

    const LayerCycles fwd = df->mercuryLayerCycles(shape, 1, mix, 20);
    const LayerCycles bwd = df->backwardLayerCycles(shape, 1, mix, 20);
    // Same compute shrinkage as the forward accounting...
    EXPECT_EQ(bwd.computation, fwd.computation);
    EXPECT_EQ(bwd.baseline, fwd.baseline);
    // ...but no insert serialization (no MAU inserts on replay) and a
    // replay-only signature charge: one table read per hashed vector
    // across the PEs, far below regeneration.
    EXPECT_EQ(bwd.cacheOverhead, 0u);
    const uint64_t vectors =
        static_cast<uint64_t>(shape.inChannels) *
        static_cast<uint64_t>(shape.vectorsPerChannel());
    EXPECT_EQ(bwd.signature,
              signatureReplayCycles(
                  vectors, static_cast<uint64_t>(cfg.numPEs)));
    EXPECT_LT(bwd.signature, fwd.signature);
}

TEST(BackwardReplay, SpeedupExceedsOneAndAHalfAtPaperHitRate)
{
    // The acceptance operating point: VGG13-sized conv at the
    // measured 86% hit rate must gain > 1.5x on the input-gradient
    // pass once signatures are replayed.
    auto cfg = defaultConfig();
    cfg.backwardReuse = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape =
        LayerShape::conv("vgg13-conv", 64, 64, 32, 32, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.86);
    const LayerCycles c = df->backwardLayerCycles(shape, 1, mix, 16);
    EXPECT_GT(c.speedup(), 1.5);
}

TEST(BackwardReplay, OverlapHidesTheReplayStream)
{
    auto cfg = defaultConfig();
    cfg.backwardReuse = true;
    cfg.overlapDetection = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);
    const LayerCycles c = df->backwardLayerCycles(shape, 1, mix, 20);
    // The table-read stream is tiny next to the remaining gradient
    // compute, so Fig. 8-style overlap hides it completely.
    EXPECT_EQ(c.signature, 0u);
}

TEST(BackwardReplay, PoolLayersNeverReplay)
{
    auto cfg = defaultConfig();
    cfg.backwardReuse = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::pool("pool", 8, 16, 16, 2, 2);
    const HitMix mix;
    const LayerCycles c = df->backwardLayerCycles(shape, 1, mix, 20);
    EXPECT_EQ(c.mercuryTotal(), c.baseline);
    EXPECT_EQ(c.signature, 0u);
}

TEST(WeightGradAccounting, WithoutKnobDwCostsTheBaseline)
{
    for (const DataflowKind kind :
         {DataflowKind::RowStationary, DataflowKind::WeightStationary,
          DataflowKind::InputStationary}) {
        auto cfg = defaultConfig(kind);
        ASSERT_FALSE(cfg.weightGradReuse);
        const auto df = Dataflow::create(cfg);
        LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
        const HitMix mix =
            HitMix::fromFractions(shape.vectorsPerChannel(), 0.86);
        const LayerCycles c =
            df->weightGradLayerCycles(shape, 1, mix, 20);
        EXPECT_EQ(c.mercuryTotal(), c.baseline);
        EXPECT_EQ(c.signature, 0u);
        EXPECT_EQ(c.cacheOverhead, 0u);
        EXPECT_DOUBLE_EQ(c.speedup(), 1.0);
    }
}

TEST(WeightGradAccounting, ReplayChargesGroupAccumulatesAndTableReads)
{
    auto cfg = defaultConfig();
    cfg.weightGradReuse = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);

    const LayerCycles fwd = df->mercuryLayerCycles(shape, 1, mix, 20,
                                                   /*saved=*/true);
    const LayerCycles dw = df->weightGradLayerCycles(shape, 1, mix, 20);
    EXPECT_EQ(dw.baseline, fwd.baseline);
    // The owner-only outer products follow the forward shrinkage;
    // every HIT row adds one accumulate per filter on top, spread
    // across the PEs.
    const uint64_t vectors =
        static_cast<uint64_t>(shape.inChannels) *
        static_cast<uint64_t>(shape.vectorsPerChannel());
    const uint64_t hits = static_cast<uint64_t>(
        std::llround(mix.hitFraction() * static_cast<double>(vectors)));
    EXPECT_EQ(dw.computation,
              fwd.computation +
                  ceilDiv(hits * static_cast<uint64_t>(
                                     shape.weightVectors()),
                          static_cast<uint64_t>(cfg.numPEs)));
    // No MCACHE inserts, replay-only signature charge.
    EXPECT_EQ(dw.cacheOverhead, 0u);
    EXPECT_EQ(dw.signature,
              signatureReplayCycles(
                  vectors, static_cast<uint64_t>(cfg.numPEs)));
}

TEST(WeightGradAccounting, SpeedupExceedsOneAndAHalfAtPaperHitRate)
{
    // The acceptance operating point: VGG13-sized conv at the
    // measured 86% hit rate must gain > 1.5x on the dW pass once the
    // forward record is replayed by sum-then-multiply.
    auto cfg = defaultConfig();
    cfg.weightGradReuse = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape =
        LayerShape::conv("vgg13-conv", 64, 64, 32, 32, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.86);
    const LayerCycles c = df->weightGradLayerCycles(shape, 1, mix, 16);
    EXPECT_GT(c.speedup(), 1.5);
}

TEST(WeightGradAccounting, OverlapHidesTheReplayStream)
{
    auto cfg = defaultConfig();
    cfg.weightGradReuse = true;
    cfg.overlapDetection = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);
    const LayerCycles c = df->weightGradLayerCycles(shape, 1, mix, 20);
    EXPECT_EQ(c.signature, 0u);
}

TEST(WeightGradAccounting, BackwardGainsTheDwTerm)
{
    // backwardLayerCycles(include_weight_grad=true) is the whole
    // backward half: the input-gradient pass plus the dW pass,
    // component by component.
    auto cfg = defaultConfig();
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    const auto df = Dataflow::create(cfg);
    LayerShape shape = LayerShape::conv("conv", 8, 64, 16, 16, 3);
    const HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), 0.5);

    const LayerCycles dx = df->backwardLayerCycles(shape, 1, mix, 20);
    const LayerCycles dw = df->weightGradLayerCycles(shape, 1, mix, 20);
    const LayerCycles both =
        df->backwardLayerCycles(shape, 1, mix, 20,
                                /*include_weight_grad=*/true);
    EXPECT_EQ(both.baseline, dx.baseline + dw.baseline);
    EXPECT_EQ(both.computation, dx.computation + dw.computation);
    EXPECT_EQ(both.signature, dx.signature + dw.signature);
    EXPECT_EQ(both.cacheOverhead, dx.cacheOverhead + dw.cacheOverhead);
}

TEST(RecordSpill, EstimatePerRowMatchesSignatureRecordLayout)
{
    const auto df = Dataflow::create(defaultConfig());
    LayerShape shape = LayerShape::conv("conv", 3, 5, 8, 8, 3, 1, 1);
    // Per hashed vector: one 64-bit signature word at 16 bits, a
    // 4-byte entry id, a 1-byte outcome = 13 bytes.
    const uint64_t vectors =
        static_cast<uint64_t>(shape.inChannels) *
        static_cast<uint64_t>(shape.vectorsPerChannel());
    EXPECT_EQ(df->recordSpillBytes(shape, 1, 16), vectors * 13u);
    // 65 bits need a second signature word.
    EXPECT_EQ(df->recordSpillBytes(shape, 1, 65), vectors * 21u);
    // Batches scale linearly; pools record nothing.
    EXPECT_EQ(df->recordSpillBytes(shape, 4, 16),
              4u * vectors * 13u);
    LayerShape pool = LayerShape::pool("pool", 8, 16, 16, 2, 2);
    EXPECT_EQ(df->recordSpillBytes(pool, 1, 16), 0u);
}

TEST(RowStationary, FewFiltersMakeSignaturesUnprofitable)
{
    // With Cout barely above the signature length the overhead can
    // exceed the savings; this is exactly what the adaptive
    // controller's per-layer stoppage is for (§III-D).
    RowStationaryDataflow df(defaultConfig());
    LayerShape shape = LayerShape::conv("conv", 8, 16, 16, 16, 3);
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 1.0);
    LayerCycles c = df.mercuryLayerCycles(shape, 1, mix, 20);
    EXPECT_GT(c.signature, c.computation);
}

TEST(RowStationary, CyclesMonotonicInHitFraction)
{
    auto cfg = defaultConfig();
    RowStationaryDataflow df(cfg);
    LayerShape shape = smallConv();
    uint64_t prev = UINT64_MAX;
    for (double h : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), h);
        LayerCycles c = df.mercuryLayerCycles(shape, 1, mix, 20);
        EXPECT_LE(c.mercuryTotal(), prev) << "hit fraction " << h;
        prev = c.mercuryTotal();
    }
}

TEST(RowStationary, AsyncNoSlowerThanSync)
{
    LayerShape shape = smallConv();
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.5);
    auto sync_cfg = defaultConfig();
    sync_cfg.asyncDesign = false;
    auto async_cfg = defaultConfig();
    async_cfg.asyncDesign = true;
    RowStationaryDataflow sync_df(sync_cfg), async_df(async_cfg);
    const auto sync_c = sync_df.mercuryLayerCycles(shape, 1, mix, 20);
    const auto async_c = async_df.mercuryLayerCycles(shape, 1, mix, 20);
    EXPECT_LE(async_c.mercuryTotal(), sync_c.mercuryTotal());
}

TEST(RowStationary, SingleFilterSlotDegeneratesToSync)
{
    LayerShape shape = smallConv();
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.5);
    auto cfg = defaultConfig();
    cfg.asyncDesign = true;
    cfg.filterBufferSlots = 1;
    auto sync_cfg = defaultConfig();
    sync_cfg.asyncDesign = false;
    RowStationaryDataflow df(cfg), sync_df(sync_cfg);
    EXPECT_EQ(df.mercuryLayerCycles(shape, 1, mix, 20).mercuryTotal(),
              sync_df.mercuryLayerCycles(shape, 1, mix, 20).mercuryTotal());
}

TEST(RowStationary, SavedSignaturesAreFree)
{
    RowStationaryDataflow df(defaultConfig());
    LayerShape shape = smallConv();
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);
    LayerCycles with_sig = df.mercuryLayerCycles(shape, 1, mix, 20, false);
    LayerCycles saved = df.mercuryLayerCycles(shape, 1, mix, 20, true);
    EXPECT_GT(with_sig.signature, 0u);
    EXPECT_EQ(saved.signature, 0u);
    EXPECT_EQ(with_sig.computation, saved.computation);
}

TEST(RowStationary, SignatureCostScalesWithBits)
{
    RowStationaryDataflow df(defaultConfig());
    LayerShape shape = smallConv();
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);
    LayerCycles s20 = df.mercuryLayerCycles(shape, 1, mix, 20);
    LayerCycles s40 = df.mercuryLayerCycles(shape, 1, mix, 40);
    EXPECT_NEAR(static_cast<double>(s40.signature) /
                    static_cast<double>(s20.signature),
                2.0, 0.01);
}

TEST(RowStationary, BatchScalesLinearly)
{
    RowStationaryDataflow df(defaultConfig());
    LayerShape shape = smallConv();
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.3);
    LayerCycles b1 = df.mercuryLayerCycles(shape, 1, mix, 20);
    LayerCycles b4 = df.mercuryLayerCycles(shape, 4, mix, 20);
    EXPECT_EQ(b4.mercuryTotal(), 4 * b1.mercuryTotal());
    EXPECT_EQ(b4.baseline, 4 * b1.baseline);
}

// ---------------------------------------------------------------------
// Grouped / depthwise convolution accounting (the MobileNet-style
// workload): a channel pass of a grouped conv meets only its group's
// outChannels / groups filters, so baseline and MERCURY compute scale
// down by the group count while the signature charge — one hash per
// extracted vector, one vector per (image, channel) pass regardless
// of grouping — stays put.
// ---------------------------------------------------------------------

TEST(GroupedConv, BaselineScalesDownByGroupCount)
{
    RowStationaryDataflow df(defaultConfig());
    // 16 -> 16 channels of 16x16, 3x3: dense vs 4 groups vs depthwise.
    const LayerShape dense =
        LayerShape::conv("dense", 16, 16, 16, 16, 3, 1, 0, 1);
    const LayerShape grouped =
        LayerShape::conv("grouped", 16, 16, 16, 16, 3, 1, 0, 4);
    const LayerShape depthwise =
        LayerShape::conv("dw", 16, 16, 16, 16, 3, 1, 0, 16);
    EXPECT_EQ(dense.weightVectors(), 16);
    EXPECT_EQ(grouped.weightVectors(), 4);
    EXPECT_EQ(depthwise.weightVectors(), 1);
    EXPECT_EQ(dense.macCount(1), 4 * grouped.macCount(1));
    EXPECT_EQ(dense.macCount(1), 16 * depthwise.macCount(1));
    EXPECT_EQ(df.baselineLayerCycles(dense, 2),
              4 * df.baselineLayerCycles(grouped, 2));
    EXPECT_EQ(df.baselineLayerCycles(dense, 2),
              16 * df.baselineLayerCycles(depthwise, 2));
}

TEST(GroupedConv, SignatureChargeIndependentOfGrouping)
{
    // The detection pass hashes one vector per output position per
    // (image, channel) pass whatever the grouping, so the signature
    // cycles of dense and depthwise variants of one geometry match.
    RowStationaryDataflow df(defaultConfig());
    const LayerShape dense =
        LayerShape::conv("dense", 16, 16, 16, 16, 3, 1, 0, 1);
    const LayerShape depthwise =
        LayerShape::conv("dw", 16, 16, 16, 16, 3, 1, 0, 16);
    const HitMix mix =
        HitMix::fromFractions(dense.vectorsPerChannel(), 0.5);
    const LayerCycles cd = df.mercuryLayerCycles(dense, 1, mix, 20);
    const LayerCycles cw = df.mercuryLayerCycles(depthwise, 1, mix, 20);
    EXPECT_EQ(cd.signature, cw.signature);
    EXPECT_GT(cd.computation, cw.computation);
}

TEST(GroupedConv, DepthwiseReuseStillPaysAtHighHitRates)
{
    // One filter per pass makes detection overhead proportionally
    // large (the few-filters effect, Fig. 12), but a replayed record
    // (saved signatures) keeps the dW/dX passes profitable.
    RowStationaryDataflow df(defaultConfig());
    const LayerShape depthwise =
        LayerShape::conv("dw", 32, 32, 16, 16, 3, 1, 1, 32);
    const HitMix mix =
        HitMix::fromFractions(depthwise.vectorsPerChannel(), 0.85);
    const LayerCycles saved =
        df.mercuryLayerCycles(depthwise, 1, mix, 20, true);
    EXPECT_LT(saved.mercuryTotal(), saved.baseline);
}

TEST(GroupedConv, BackwardAndWeightGradHonorGroups)
{
    AcceleratorConfig cfg = defaultConfig();
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    RowStationaryDataflow df(cfg);
    const LayerShape depthwise =
        LayerShape::conv("dw", 16, 16, 16, 16, 3, 1, 1, 16);
    const HitMix mix =
        HitMix::fromFractions(depthwise.vectorsPerChannel(), 0.6);
    const LayerCycles dx =
        df.backwardLayerCycles(depthwise, 1, mix, 20);
    const LayerCycles dw =
        df.weightGradLayerCycles(depthwise, 1, mix, 20);
    // Replayed passes of the depthwise layer stay below its baseline.
    EXPECT_GT(dx.baseline, 0u);
    EXPECT_LT(dx.mercuryTotal(), dx.baseline);
    EXPECT_LT(dw.mercuryTotal(), dw.baseline);
}

TEST(GroupedConv, PointwiseGroupedMapsToPerGroupFc)
{
    // 1x1 grouped convs (ResNeXt-style) map to the FC formulation
    // with per-group widths: every spatial position of every group is
    // one Cin/groups-dimensional vector meeting Cout/groups columns.
    RowStationaryDataflow df(defaultConfig());
    const LayerShape pw =
        LayerShape::conv("pw", 16, 16, 8, 8, 1, 1, 0, 4);
    const LayerShape fc_equiv = LayerShape::fc("pw.fc", 4, 4);
    EXPECT_EQ(df.baselineLayerCycles(pw, 1),
              df.baselineLayerCycles(fc_equiv,
                                     pw.vectorsPerChannel() * 4));
}

TEST(FullyConnected, BaselineSpreadsOverPEs)
{
    auto df = Dataflow::create(defaultConfig());
    LayerShape fc = LayerShape::fc("fc", 256, 128);
    // One input vector per image; batch 168 saturates all PEs.
    const uint64_t cycles = df->baselineLayerCycles(fc, 168);
    EXPECT_EQ(cycles, 128ull * broadcastDotCycles(256));
}

TEST(FullyConnected, HitsReduceCycles)
{
    auto df = Dataflow::create(defaultConfig());
    LayerShape fc = LayerShape::fc("fc", 256, 128);
    HitMix none = HitMix::fromFractions(64, 0.0);
    HitMix half = HitMix::fromFractions(64, 0.5);
    const auto c0 = df->mercuryLayerCycles(fc, 64, none, 20);
    const auto c1 = df->mercuryLayerCycles(fc, 64, half, 20);
    EXPECT_LT(c1.mercuryTotal(), c0.mercuryTotal());
    EXPECT_GT(c1.speedup(), 1.2);
}

TEST(Attention, TreatedAsFcLike)
{
    auto df = Dataflow::create(defaultConfig());
    LayerShape att = LayerShape::attention("att", 64, 128);
    HitMix mix = HitMix::fromFractions(64, 0.5);
    const auto c = df->mercuryLayerCycles(att, 1, mix, 20);
    EXPECT_GT(c.baseline, 0u);
    EXPECT_GT(c.speedup(), 1.0);
}

TEST(Pool, MercuryDoesNotChangePooling)
{
    auto df = Dataflow::create(defaultConfig());
    LayerShape pool = LayerShape::pool("pool", 16, 16, 16, 2, 2);
    HitMix mix = HitMix::fromFractions(pool.vectorsPerChannel(), 0.9);
    const auto c = df->mercuryLayerCycles(pool, 1, mix, 20);
    EXPECT_EQ(c.mercuryTotal(), c.baseline);
    EXPECT_EQ(c.signature, 0u);
}

class DataflowInvariantTest
    : public ::testing::TestWithParam<std::tuple<DataflowKind, int, double>>
{
};

TEST_P(DataflowInvariantTest, MercuryNeverSlowerWithMoreHits)
{
    const auto [kind, kernel, base_hit] = GetParam();
    auto cfg = defaultConfig(kind);
    auto df = Dataflow::create(cfg);
    LayerShape shape =
        LayerShape::conv("c", 4, 32, 20, 20, kernel, 1, kernel / 2);
    HitMix lo = HitMix::fromFractions(shape.vectorsPerChannel(), base_hit);
    HitMix hi =
        HitMix::fromFractions(shape.vectorsPerChannel(),
                              std::min(1.0, base_hit + 0.2));
    const auto c_lo = df->mercuryLayerCycles(shape, 2, lo, 24);
    const auto c_hi = df->mercuryLayerCycles(shape, 2, hi, 24);
    EXPECT_LE(c_hi.mercuryTotal(), c_lo.mercuryTotal());
}

TEST_P(DataflowInvariantTest, BaselineConsistentAcrossCalls)
{
    const auto [kind, kernel, base_hit] = GetParam();
    auto df = Dataflow::create(defaultConfig(kind));
    LayerShape shape =
        LayerShape::conv("c", 4, 32, 20, 20, kernel, 1, kernel / 2);
    HitMix mix =
        HitMix::fromFractions(shape.vectorsPerChannel(), base_hit);
    const auto c = df->mercuryLayerCycles(shape, 2, mix, 24);
    EXPECT_EQ(c.baseline, df->baselineLayerCycles(shape, 2));
}

TEST_P(DataflowInvariantTest, HighSimilarityYieldsSpeedup)
{
    const auto [kind, kernel, base_hit] = GetParam();
    (void)base_hit;
    auto df = Dataflow::create(defaultConfig(kind));
    LayerShape shape =
        LayerShape::conv("c", 16, 256, 28, 28, kernel, 1, kernel / 2);
    HitMix mix = HitMix::fromFractions(shape.vectorsPerChannel(), 0.7);
    const auto c = df->mercuryLayerCycles(shape, 2, mix, 20);
    EXPECT_GT(c.speedup(), 1.0)
        << dataflowName(kind) << " kernel " << kernel;
}

INSTANTIATE_TEST_SUITE_P(
    KindKernelHit, DataflowInvariantTest,
    ::testing::Combine(
        ::testing::Values(DataflowKind::RowStationary,
                          DataflowKind::WeightStationary,
                          DataflowKind::InputStationary),
        ::testing::Values(1, 3, 5),
        ::testing::Values(0.0, 0.3, 0.6)));

} // namespace
} // namespace mercury
