/**
 * @file
 * Tests for the signature-replay subsystem (§III-C2): the
 * SignatureRecord capture, the backward filter passes of all three
 * reuse engines (bit-identical to the exact input gradient at zero
 * hits, skipping exactly the forward HIT rows otherwise, threads 1 ==
 * pooled, the MCACHE untouched by every replay, the same outputs with
 * every cache line evicted between replays), the weight-gradient
 * sum-then-multiply replay of all three engines (bit-identical to
 * the exact dW at zero hits, exact up to float-summation order
 * otherwise), the NN-layer integration behind
 * MercuryContext::backwardReuse / weightGradReuse, and concurrent
 * replay-consumption stresses for the sanitizer CI jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/similarity_detector.hpp"
#include "nn/attention_layer.hpp"
#include "nn/layers.hpp"
#include "nn/mercury_hooks.hpp"
#include "nn/network.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/signature_record.hpp"
#include "serve/snapshot.hpp"
#include "sim/dataflow.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kVersions = 4;
constexpr uint64_t kSeed = 777;

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

/**
 * Replays read their owners from the record and never probe: the
 * MCACHE's lifetime probe counts must not move across the replayed
 * passes.
 */
void
expectCacheUntouched(const McacheCounters &before, DetectionFrontend &fe,
                     const char *what)
{
    const McacheCounters &after = fe.cache().stats();
    EXPECT_EQ(after.hits, before.hits) << what;
    EXPECT_EQ(after.mau, before.mau) << what;
    EXPECT_EQ(after.mnu, before.mnu) << what;
}

// ---------------------------------------------------------------------
// SignatureRecord capture
// ---------------------------------------------------------------------

/** Signature lengths of one packed word and of two. */
class RecordBits : public ::testing::TestWithParam<int>
{
};

TEST_P(RecordBits, CapturesOutcomesSignaturesAndMix)
{
    const int bits = GetParam();
    Tensor rows = duplicateRows(96, 12, 7, kSeed);
    DetectionFrontend fe(kSets, kWays, kVersions, 128, kSeed);
    SignatureRecord record;
    record.append(fe.detect(rows, bits), fe.dataVersions(), fe.entries());
    // The scalar detector over its own cache is the oracle.
    MCache mono(kSets, kWays, kVersions);
    const RPQEngine rpq(rows.dim(1), 128, kSeed);
    const DetectionResult det =
        SimilarityDetector(rpq, mono, bits).detect(rows);

    ASSERT_EQ(record.passCount(), 1);
    ASSERT_EQ(record.dataVersions(), kVersions);
    ASSERT_EQ(record.entries(), int64_t{kSets} * kWays);
    const SignatureRecord::Pass &pass = record.pass(0);
    ASSERT_EQ(pass.rows, rows.dim(0));
    EXPECT_EQ(pass.bits, bits);
    EXPECT_EQ(pass.sigWordsPerRow, Signature::wordsFor(bits));
    for (int64_t i = 0; i < pass.rows; ++i) {
        EXPECT_EQ(pass.outcome(i), det.hitmap.outcome(i));
        EXPECT_EQ(pass.entryId(i), det.hitmap.entryId(i));
        EXPECT_TRUE(pass.signatureOf(i) == det.table.signature(i))
            << "signature mismatch at row " << i;
    }
    const HitMix a = pass.mix, b = det.mix();
    EXPECT_EQ(a.hit, b.hit);
    EXPECT_EQ(a.mau, b.mau);
    EXPECT_EQ(a.mnu, b.mnu);
    EXPECT_GT(a.hit, 0) << "duplicate rows must hit";
    EXPECT_GT(record.storageBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Bits, RecordBits, ::testing::Values(20, 100));

TEST(Record, OwnersAreEarlierComputedRows)
{
    Tensor rows = duplicateRows(64, 10, 5, kSeed + 1);
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    SignatureRecord record;
    record.append(fe.detect(rows, 24), fe.dataVersions(), fe.entries());
    const SignatureRecord::Pass &pass = record.pass(0);

    const std::vector<int32_t> &owner = pass.owners;
    ASSERT_EQ(static_cast<int64_t>(owner.size()), pass.rows);
    for (int64_t i = 0; i < pass.rows; ++i) {
        if (pass.outcome(i) == McacheOutcome::Hit) {
            ASSERT_LT(owner[i], i) << "HIT owner must be earlier";
            EXPECT_EQ(owner[owner[i]], owner[i])
                << "owners always compute (depth-one chains)";
        } else {
            EXPECT_EQ(owner[i], i);
        }
    }
}

// ---------------------------------------------------------------------
// Record soundness: append and restore accept only passes a probe can
// produce, and derive or check the owner map the replays read
// ---------------------------------------------------------------------

/**
 * Four rows over a 64-entry cache: MAU into entry 5, two HITs on it
 * (owned by row 0) and an MNU.
 */
SignatureRecord::Pass
soundPass()
{
    SignatureRecord::Pass p;
    p.rows = 4;
    p.bits = 20;
    p.sigWordsPerRow = 1;
    p.sigWords = {1, 1, 1, 2};
    p.entryIds = {5, 5, 5, -1};
    p.outcomes = {static_cast<uint8_t>(McacheOutcome::Mau),
                  static_cast<uint8_t>(McacheOutcome::Hit),
                  static_cast<uint8_t>(McacheOutcome::Hit),
                  static_cast<uint8_t>(McacheOutcome::Mnu)};
    p.mix.vectors = 4;
    p.mix.hit = 2;
    p.mix.mau = 1;
    p.mix.mnu = 1;
    return p;
}

void
appendTo64(SignatureRecord::Pass p)
{
    SignatureRecord record;
    record.append(std::move(p), kVersions, 64);
}

TEST(Record, AppendDerivesAndChecksTheOwnerMap)
{
    SignatureRecord record;
    record.append(soundPass(), kVersions, 64);
    EXPECT_EQ(record.pass(0).owners, (std::vector<int32_t>{0, 0, 0, 3}));
    EXPECT_EQ(record.pass(0).forwarded, 2);
    // A supplied sound map is kept as it is.
    SignatureRecord::Pass p = soundPass();
    p.owners = {0, 0, 0, 3};
    record.append(std::move(p), kVersions, 64);
    EXPECT_EQ(record.pass(1).owners, record.pass(0).owners);
    EXPECT_EQ(record.pass(1).forwarded, 2);
}

TEST(RecordDeath, HitWithoutAnEntryDies)
{
    SignatureRecord::Pass p = soundPass();
    p.entryIds[1] = -1;
    EXPECT_DEATH(appendTo64(std::move(p)), "row 1: pass entry id");
}

TEST(RecordDeath, MauEntryPastTheCacheDies)
{
    SignatureRecord::Pass p = soundPass();
    p.entryIds[0] = 64;
    EXPECT_DEATH(appendTo64(std::move(p)), "row 0: pass entry id");
}

TEST(RecordDeath, MnuWithAnEntryDies)
{
    SignatureRecord::Pass p = soundPass();
    p.entryIds[3] = 7;
    EXPECT_DEATH(appendTo64(std::move(p)), "row 3: pass entry id");
}

TEST(RecordDeath, OutcomePastMnuDies)
{
    SignatureRecord::Pass p = soundPass();
    p.outcomes[2] = 3;
    EXPECT_DEATH(appendTo64(std::move(p)), "row 2: pass outcome");
}

TEST(RecordDeath, ShortOutcomesDie)
{
    SignatureRecord::Pass p = soundPass();
    p.outcomes.pop_back();
    EXPECT_DEATH(appendTo64(std::move(p)), "holds 3 outcomes");
}

TEST(RecordDeath, ShortEntryIdsDie)
{
    SignatureRecord::Pass p = soundPass();
    p.entryIds.pop_back();
    EXPECT_DEATH(appendTo64(std::move(p)), "3 entry ids");
}

TEST(RecordDeath, ShortWordsDie)
{
    SignatureRecord::Pass p = soundPass();
    p.sigWords.pop_back();
    EXPECT_DEATH(appendTo64(std::move(p)), "and 3 words");
}

TEST(RecordDeath, OwnerMapOfAnotherLengthDies)
{
    SignatureRecord::Pass p = soundPass();
    p.owners = {0, 0, 0};
    EXPECT_DEATH(appendTo64(std::move(p)), "owner map of 3");
}

TEST(RecordDeath, OwnerAfterItsRowDies)
{
    SignatureRecord::Pass p = soundPass();
    p.owners = {1, 1, 1, 3};
    EXPECT_DEATH(appendTo64(std::move(p)), "row 0: owner 1");
}

TEST(RecordDeath, OwnerThatForwardsDies)
{
    SignatureRecord::Pass p = soundPass();
    p.owners = {0, 0, 1, 3};
    EXPECT_DEATH(appendTo64(std::move(p)), "row 2: owner 1");
}

TEST(RecordDeath, NonHitRowThatForwardsDies)
{
    SignatureRecord::Pass p = soundPass();
    p.owners = {0, 0, 0, 0};
    EXPECT_DEATH(appendTo64(std::move(p)), "row 3: owner 0");
}

TEST(RecordDeath, RestoreChecksEveryRow)
{
    std::vector<SignatureRecord::Pass> passes(2, soundPass());
    passes[1].entryIds[2] = -1;
    SignatureRecord record;
    EXPECT_DEATH(record.restore(std::move(passes), kVersions, 64),
                 "row 2: pass entry id");
}

// ---------------------------------------------------------------------
// Conv backward replay
// ---------------------------------------------------------------------

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

TEST(ConvBackward, BitIdenticalToExactGradientWhenNoHits)
{
    Rng rng(31);
    Tensor in({2, 3, 8, 8});
    in.fillNormal(rng); // white noise: no similarity at 32 bits
    const ConvSpec spec = convSpec(3, 5, 3, 1, 1);
    Tensor w({5, 3, 3, 3});
    w.fillNormal(rng);
    Tensor grad({2, 5, 8, 8});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_EQ(fstats.mix.hit, 0)
        << "white noise at 32 bits must not hit (seeded, deterministic)";

    ReuseStats bstats;
    Tensor gin = engine.backwardInput(grad, w, spec, 8, 8, record, bstats);
    Tensor ref = conv2dBackwardInput(grad, w, spec, 8, 8);
    EXPECT_TRUE(gin == ref)
        << "zero-hit replay must be bit-identical, max diff "
        << gin.maxAbsDiff(ref);
    EXPECT_EQ(bstats.macsSkipped, 0u);
    EXPECT_EQ(bstats.macsTotal, fstats.macsTotal);
}

TEST(ConvBackward, StridedPaddedGroupedBitIdenticalWhenNoHits)
{
    Rng rng(33);
    Tensor in({1, 4, 9, 9});
    in.fillNormal(rng);
    const ConvSpec spec = convSpec(4, 6, 3, 2, 1, 2);
    Tensor w({6, 2, 3, 3});
    w.fillNormal(rng);
    const int64_t oh = spec.outH(9), ow = spec.outW(9);
    Tensor grad({1, 6, oh, ow});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats bstats;
    Tensor gin = engine.backwardInput(grad, w, spec, 9, 9, record, bstats);
    Tensor ref = conv2dBackwardInput(grad, w, spec, 9, 9);
    EXPECT_TRUE(gin == ref);
}

TEST(ConvBackward, SkipsExactlyTheForwardHitRows)
{
    Tensor in = similarInput(1, 4, 12, 12, 1e-4f, 62);
    Rng rng(63);
    const ConvSpec spec = convSpec(4, 8, 3);
    Tensor w({8, 4, 3, 3});
    w.fillNormal(rng);
    const int64_t oh = spec.outH(12), ow = spec.outW(12);
    Tensor grad({1, 8, oh, ow});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 16);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0) << "smooth input must hit";

    ReuseStats bstats;
    Tensor gin =
        engine.backwardInput(grad, w, spec, 12, 12, record, bstats);
    // Backward skips the same rows forward skipped: d MACs per HIT
    // row per filter, identical to the forward accounting.
    EXPECT_EQ(bstats.macsSkipped, fstats.macsSkipped);
    EXPECT_EQ(bstats.mix.hit, fstats.mix.hit);
    EXPECT_EQ(bstats.mix.vectors, fstats.mix.vectors);
    // With hits present the replayed gradient differs from the exact
    // one (that approximation is the measured trade-off), but it must
    // stay finite and deterministic.
    for (int64_t i = 0; i < gin.numel(); ++i)
        ASSERT_TRUE(std::isfinite(gin[i]));
    ReuseStats bstats2;
    Tensor gin2 =
        engine.backwardInput(grad, w, spec, 12, 12, record, bstats2);
    EXPECT_TRUE(gin == gin2);
}

TEST(ConvBackward, OverlappedReplayBitIdenticalToSerial)
{
    Tensor in = similarInput(1, 6, 10, 10, 1e-3f, 91);
    Rng rng(92);
    const ConvSpec spec = convSpec(6, 9, 3, 1, 1);
    Tensor w({9, 6, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 9, 10, 10});
    grad.fillNormal(rng);

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 16;
    DetectionFrontend serial_fe(kSets, kWays, kVersions, 32, kSeed,
                                serial_pipe);
    ConvReuseEngine serial(serial_fe, 16);

    PipelineConfig pooled_pipe = serial_pipe;
    pooled_pipe.threads = 4;
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, 32, kSeed,
                                pooled_pipe);
    ConvReuseEngine pooled(pooled_fe, 16);

    ReuseStats fs, fo;
    SignatureRecord rs, ro;
    const Tensor out_s = serial.forward(in, w, Tensor(), spec, fs, &rs);
    const Tensor out_o =
        pooled.forward(in, w, Tensor(), spec, fo, &ro);
    ASSERT_TRUE(out_s == out_o)
        << "pooled forward with capture must stay bit-identical";
    ASSERT_EQ(rs.passCount(), ro.passCount());

    const McacheCounters mix_s = serial_fe.cache().stats();
    const McacheCounters mix_o = pooled_fe.cache().stats();
    ReuseStats bs, bo;
    Tensor gs = serial.backwardInput(grad, w, spec, 10, 10, rs, bs);
    Tensor go = pooled.backwardInput(grad, w, spec, 10, 10, ro, bo);
    EXPECT_TRUE(gs == go);
    EXPECT_EQ(bs.macsSkipped, bo.macsSkipped);
    expectCacheUntouched(mix_s, serial_fe, "serial replay");
    expectCacheUntouched(mix_o, pooled_fe, "pooled replay");
}

TEST(ConvBackward, InputSizeThatDisagreesWithTheGradientDies)
{
    // The dX replay sizes its frame from (in_h, in_w) and reads v rows
    // of gradOut per filter; the record only pins v. A size one off
    // (outH(7) = 5 against a 4-row gradient) must panic, as the exact
    // op does, rather than read past gradOut.
    Tensor in = similarInput(1, 2, 6, 6, 1e-3f, 95);
    Rng rng(96);
    const ConvSpec spec = convSpec(2, 3, 3);
    Tensor w({3, 2, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 3, 4, 4});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 16);
    ReuseStats fstats, bstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    EXPECT_DEATH(engine.backwardInput(grad, w, spec, 7, 6, record, bstats),
                 "gradOut shape");
    EXPECT_DEATH(engine.backwardInput(grad, w, spec, 6, 7, record, bstats),
                 "gradOut shape");
    Tensor too_few_filters({2, 2, 3, 3});
    EXPECT_DEATH(engine.backwardInput(grad, too_few_filters, spec, 6, 6,
                                      record, bstats),
                 "weight shape");
    Tensor wrong_h({1, 3, 5, 4});
    EXPECT_DEATH(engine.backwardWeights(in, wrong_h, spec, record, bstats),
                 "gradOut shape");

    const Tensor gin =
        engine.backwardInput(grad, w, spec, 6, 6, record, bstats);
    EXPECT_EQ(gin.dim(2), 6);
    EXPECT_EQ(gin.dim(3), 6);
}

// ---------------------------------------------------------------------
// FC backward replay
// ---------------------------------------------------------------------

TEST(FcBackward, BitIdenticalToExactGradientWhenNoHits)
{
    Rng rng(41);
    Tensor in({24, 16});
    in.fillNormal(rng);
    Tensor w({16, 10});
    w.fillNormal(rng);
    Tensor grad({24, 10});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    FcEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, fstats, nullptr, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats bstats;
    Tensor gin = engine.backwardInput(grad, w, record, bstats);
    Tensor ref = matmulTransposeB(grad, w);
    EXPECT_TRUE(gin == ref);
    EXPECT_EQ(bstats.macsSkipped, 0u);
}

TEST(FcBackward, HitRowsReceiveTheirOwnersGradientRow)
{
    Tensor in = duplicateRows(30, 12, 6, kSeed + 5);
    Rng rng(43);
    Tensor w({12, 7});
    w.fillNormal(rng);
    Tensor grad({30, 7});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    FcEngine engine(fe, 24);
    ReuseStats fstats;
    SignatureRecord record;
    std::vector<int64_t> owners;
    engine.forward(in, w, fstats, &owners, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    ReuseStats bstats;
    Tensor gin = engine.backwardInput(grad, w, record, bstats);
    for (int64_t i = 0; i < 30; ++i) {
        const int64_t o = owners[static_cast<size_t>(i)];
        if (o == i)
            continue;
        for (int64_t j = 0; j < 12; ++j)
            EXPECT_EQ(gin.at2(i, j), gin.at2(o, j))
                << "row " << i << " must copy owner " << o;
    }
    EXPECT_EQ(bstats.macsSkipped, fstats.macsSkipped);
}

TEST(FcBackward, OverlappedReplayBitIdenticalToSerial)
{
    Tensor in = duplicateRows(120, 20, 11, kSeed + 6);
    Rng rng(44);
    Tensor w({20, 9});
    w.fillNormal(rng);
    Tensor grad({120, 9});
    grad.fillNormal(rng);

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 32;
    DetectionFrontend serial_fe(kSets, kWays, kVersions, 32, kSeed,
                                serial_pipe);
    FcEngine serial(serial_fe, 24);

    PipelineConfig pooled_pipe = serial_pipe;
    pooled_pipe.threads = 4;
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, 32, kSeed,
                                pooled_pipe);
    FcEngine pooled(pooled_fe, 24);

    ReuseStats fs, fo;
    SignatureRecord rs, ro;
    serial.forward(in, w, fs, nullptr, &rs);
    pooled.forward(in, w, fo, nullptr, &ro);

    const McacheCounters mix_s = serial_fe.cache().stats();
    const McacheCounters mix_o = pooled_fe.cache().stats();
    ReuseStats bs, bo;
    Tensor gs = serial.backwardInput(grad, w, rs, bs);
    Tensor go = pooled.backwardInput(grad, w, ro, bo);
    EXPECT_TRUE(gs == go);
    EXPECT_EQ(bs.macsSkipped, bo.macsSkipped);
    expectCacheUntouched(mix_s, serial_fe, "serial replay");
    expectCacheUntouched(mix_o, pooled_fe, "pooled replay");
}

// ---------------------------------------------------------------------
// Attention backward replay
// ---------------------------------------------------------------------

/** The exact factorized attention backward of one sample. */
Tensor
exactAttentionBackward(const Tensor &x, const Tensor &g)
{
    Tensor xtx = matmul(transpose2d(x), x);
    Tensor term1 = matmul(g, xtx);
    Tensor term2 = matmul(matmul(x, transpose2d(g)), x);
    Tensor term3 = matmul(matmulTransposeB(x, x), g);
    Tensor out(x.shape());
    for (int64_t i = 0; i < out.numel(); ++i)
        out[i] = term1[i] + term2[i] + term3[i];
    return out;
}

TEST(AttentionBackward, BitIdenticalToExactGradientWhenNoHits)
{
    Rng rng(51);
    Tensor x({12, 8});
    x.fillNormal(rng);
    Tensor g({12, 8});
    g.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    AttentionEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    record.clear();
    engine.forward(x, fstats, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats bstats;
    Tensor gin = engine.backward(x, g, record, 0, bstats);
    Tensor ref = exactAttentionBackward(x, g);
    EXPECT_TRUE(gin == ref);
    EXPECT_EQ(bstats.macsSkipped, 0u);
}

TEST(AttentionBackward, HitRowsCopyOwnerGradientRows)
{
    Tensor x = duplicateRows(16, 8, 4, kSeed + 7);
    Rng rng(52);
    Tensor g({16, 8});
    g.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    AttentionEngine engine(fe, 24);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(x, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    const std::vector<int32_t> &owner = record.pass(0).owners;
    ReuseStats bstats;
    Tensor gin = engine.backward(x, g, record, 0, bstats);
    for (int64_t i = 0; i < 16; ++i) {
        const int64_t o = owner[static_cast<size_t>(i)];
        if (o == i)
            continue;
        for (int64_t j = 0; j < 8; ++j)
            EXPECT_EQ(gin.at2(i, j), gin.at2(o, j));
    }
    EXPECT_GT(bstats.macsSkipped, 0u);
}

TEST(AttentionBackward, FactorOfAnotherShapeDies)
{
    // The replay reads xtx(e, j) for every e, j < D, so a precomputed
    // Xt X factor must be (D, D), like every other operand.
    Rng rng(54);
    Tensor x({6, 8});
    x.fillNormal(rng);
    Tensor g({6, 8});
    g.fillNormal(rng);
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    AttentionEngine engine(fe, 24);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(x, fstats, &record);
    ReuseStats bstats;
    for (const std::vector<int64_t> &shape :
         {std::vector<int64_t>{2, 2}, std::vector<int64_t>{8, 6},
          std::vector<int64_t>{8}, std::vector<int64_t>{1, 8, 8}}) {
        const Tensor xtx(shape);
        EXPECT_DEATH(engine.backward(x, g, record, 0, bstats, &xtx),
                     "Xt X factor");
    }
}

TEST(AttentionBackward, OverlappedReplayBitIdenticalToSerial)
{
    Tensor x = duplicateRows(48, 10, 9, kSeed + 8);
    Rng rng(53);
    Tensor g({48, 10});
    g.fillNormal(rng);

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 16;
    DetectionFrontend serial_fe(kSets, kWays, kVersions, 32, kSeed,
                                serial_pipe);
    AttentionEngine serial(serial_fe, 24);

    PipelineConfig pooled_pipe = serial_pipe;
    pooled_pipe.threads = 4;
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, 32, kSeed,
                                pooled_pipe);
    AttentionEngine pooled(pooled_fe, 24);

    ReuseStats fs, fo;
    SignatureRecord rs, ro;
    serial.forward(x, fs, &rs);
    pooled.forward(x, fo, &ro);

    const McacheCounters mix_s = serial_fe.cache().stats();
    const McacheCounters mix_o = pooled_fe.cache().stats();
    ReuseStats bs, bo;
    Tensor gs = serial.backward(x, g, rs, 0, bs);
    Tensor go = pooled.backward(x, g, ro, 0, bo);
    EXPECT_TRUE(gs == go);
    EXPECT_EQ(bs.macsSkipped, bo.macsSkipped);
    expectCacheUntouched(mix_s, serial_fe, "serial replay");
    expectCacheUntouched(mix_o, pooled_fe, "pooled replay");
}

// ---------------------------------------------------------------------
// Weight-gradient replay (§III-C2 on Eq. 1, sum-then-multiply)
// ---------------------------------------------------------------------

TEST(ConvWeightGrad, BitIdenticalToExactGradientWhenNoHits)
{
    Rng rng(71);
    Tensor in({2, 3, 8, 8});
    in.fillNormal(rng); // white noise: no similarity at 32 bits
    const ConvSpec spec = convSpec(3, 5, 3, 1, 1);
    Tensor w({5, 3, 3, 3});
    w.fillNormal(rng);
    Tensor grad({2, 5, 8, 8});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats wstats;
    Tensor dw = engine.backwardWeights(in, grad, spec, record, wstats);
    Tensor ref = conv2dBackwardWeight(in, grad, spec);
    EXPECT_TRUE(dw == ref)
        << "zero-hit dW replay must be bit-identical, max diff "
        << dw.maxAbsDiff(ref);
    EXPECT_EQ(wstats.macsSkipped, 0u);
    EXPECT_EQ(wstats.macsTotal, fstats.macsTotal);
}

TEST(ConvWeightGrad, StridedPaddedGroupedBitIdenticalWhenNoHits)
{
    Rng rng(72);
    Tensor in({1, 4, 9, 9});
    in.fillNormal(rng);
    const ConvSpec spec = convSpec(4, 6, 3, 2, 1, 2);
    Tensor w({6, 2, 3, 3});
    w.fillNormal(rng);
    const int64_t oh = spec.outH(9), ow = spec.outW(9);
    Tensor grad({1, 6, oh, ow});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats wstats;
    Tensor dw = engine.backwardWeights(in, grad, spec, record, wstats);
    Tensor ref = conv2dBackwardWeight(in, grad, spec);
    EXPECT_TRUE(dw == ref);
}

TEST(ConvWeightGrad, SumThenMultiplyMatchesExactDwWithinTolerance)
{
    // Near-identical patches produce real hit-groups; the replayed dW
    // factors each group through its owner's patch, so it differs
    // from the exact dW only by the patch deltas and the group-sum
    // float order — a tight relative tolerance.
    Tensor in = similarInput(1, 4, 12, 12, 1e-4f, 73);
    Rng rng(74);
    const ConvSpec spec = convSpec(4, 8, 3);
    Tensor w({8, 4, 3, 3});
    w.fillNormal(rng);
    const int64_t oh = spec.outH(12), ow = spec.outW(12);
    Tensor grad({1, 8, oh, ow});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 16);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0) << "smooth input must hit";

    ReuseStats wstats;
    Tensor dw = engine.backwardWeights(in, grad, spec, record, wstats);
    Tensor ref = conv2dBackwardWeight(in, grad, spec);
    float scale = 0.0f;
    for (int64_t i = 0; i < ref.numel(); ++i)
        scale = std::max(scale, std::abs(ref[i]));
    ASSERT_GT(scale, 0.0f);
    EXPECT_LT(dw.maxAbsDiff(ref), 0.02f * scale)
        << "sum-then-multiply drifted past the group tolerance";
    // The dW pass skips the same rows forward skipped: d MACs per HIT
    // row per filter.
    EXPECT_EQ(wstats.macsSkipped, fstats.macsSkipped);
    EXPECT_EQ(wstats.mix.hit, fstats.mix.hit);
    // Deterministic: replaying the same record reproduces the bits.
    ReuseStats wstats2;
    Tensor dw2 = engine.backwardWeights(in, grad, spec, record, wstats2);
    EXPECT_TRUE(dw == dw2);
}

TEST(ConvWeightGrad, OverlappedReplayBitIdenticalToSerial)
{
    Tensor in = similarInput(1, 6, 10, 10, 1e-3f, 75);
    Rng rng(76);
    const ConvSpec spec = convSpec(6, 9, 3, 1, 1);
    Tensor w({9, 6, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 9, 10, 10});
    grad.fillNormal(rng);

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 16;
    DetectionFrontend serial_fe(kSets, kWays, kVersions, 32, kSeed,
                                serial_pipe);
    ConvReuseEngine serial(serial_fe, 16);

    PipelineConfig pooled_pipe = serial_pipe;
    pooled_pipe.threads = 4;
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, 32, kSeed,
                                pooled_pipe);
    ConvReuseEngine pooled(pooled_fe, 16);

    ReuseStats fs, fo;
    SignatureRecord rs, ro;
    serial.forward(in, w, Tensor(), spec, fs, &rs);
    pooled.forward(in, w, Tensor(), spec, fo, &ro);

    const McacheCounters mix_s = serial_fe.cache().stats();
    const McacheCounters mix_o = pooled_fe.cache().stats();
    ReuseStats ws, wo;
    Tensor ds = serial.backwardWeights(in, grad, spec, rs, ws);
    Tensor dov = pooled.backwardWeights(in, grad, spec, ro, wo);
    EXPECT_TRUE(ds == dov);
    EXPECT_EQ(ws.macsSkipped, wo.macsSkipped);
    expectCacheUntouched(mix_s, serial_fe, "serial replay");
    expectCacheUntouched(mix_o, pooled_fe, "pooled replay");
}

TEST(FcWeightGrad, BitIdenticalToExactGradientWhenNoHits)
{
    Rng rng(81);
    Tensor in({24, 16});
    in.fillNormal(rng);
    Tensor grad({24, 10});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    FcEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    Tensor w({16, 10});
    w.fillNormal(rng);
    engine.forward(in, w, fstats, nullptr, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats wstats;
    Tensor dw = engine.backwardWeights(in, grad, record, wstats);
    Tensor ref = matmul(transpose2d(in), grad);
    EXPECT_TRUE(dw == ref);
    EXPECT_EQ(wstats.macsSkipped, 0u);
}

TEST(FcWeightGrad, GroupSumsFactorThroughTheOwnersRow)
{
    // Duplicated rows: a hit's input row equals its owner's bit for
    // bit, so the replayed dW is the exact dW re-associated into
    // group sums. Check against an independent restatement of the
    // sum-then-multiply spec (bit-exact) and against the exact dW
    // (tight tolerance, float-summation order only).
    Tensor in = duplicateRows(30, 12, 6, kSeed + 15);
    Rng rng(82);
    Tensor w({12, 7});
    w.fillNormal(rng);
    Tensor grad({30, 7});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    FcEngine engine(fe, 24);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, fstats, nullptr, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    ReuseStats wstats;
    Tensor dw = engine.backwardWeights(in, grad, record, wstats);

    // Independent sum-then-multiply reference from the owner map.
    const std::vector<int32_t> &owner = record.pass(0).owners;
    Tensor gsum({30, 7});
    for (int64_t r = 0; r < 30; ++r) {
        const int64_t o = owner[static_cast<size_t>(r)];
        for (int64_t p = 0; p < 7; ++p) {
            if (o == r)
                gsum.at2(o, p) = grad.at2(r, p);
            else
                gsum.at2(o, p) += grad.at2(r, p);
        }
    }
    Tensor ref({12, 7});
    for (int64_t j = 0; j < 12; ++j) {
        for (int64_t r = 0; r < 30; ++r) {
            if (owner[static_cast<size_t>(r)] != r)
                continue;
            const float av = in.at2(r, j);
            if (av == 0.0f)
                continue;
            for (int64_t p = 0; p < 7; ++p)
                ref.at2(j, p) += av * gsum.at2(r, p);
        }
    }
    EXPECT_TRUE(dw == ref)
        << "engine must implement the sum-then-multiply order exactly";

    Tensor exact = matmul(transpose2d(in), grad);
    float scale = 0.0f;
    for (int64_t i = 0; i < exact.numel(); ++i)
        scale = std::max(scale, std::abs(exact[i]));
    EXPECT_LT(dw.maxAbsDiff(exact), 1e-4f * scale)
        << "identical-row groups differ from exact only by summation "
           "order";
    EXPECT_EQ(wstats.macsSkipped, fstats.macsSkipped);
}

TEST(FcWeightGrad, OverlappedReplayBitIdenticalToSerial)
{
    Tensor in = duplicateRows(120, 20, 11, kSeed + 16);
    Rng rng(83);
    Tensor w({20, 9});
    w.fillNormal(rng);
    Tensor grad({120, 9});
    grad.fillNormal(rng);

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 32;
    DetectionFrontend serial_fe(kSets, kWays, kVersions, 32, kSeed,
                                serial_pipe);
    FcEngine serial(serial_fe, 24);

    PipelineConfig pooled_pipe = serial_pipe;
    pooled_pipe.threads = 4;
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, 32, kSeed,
                                pooled_pipe);
    FcEngine pooled(pooled_fe, 24);

    ReuseStats fs, fo;
    SignatureRecord rs, ro;
    serial.forward(in, w, fs, nullptr, &rs);
    pooled.forward(in, w, fo, nullptr, &ro);

    const McacheCounters mix_s = serial_fe.cache().stats();
    const McacheCounters mix_o = pooled_fe.cache().stats();
    ReuseStats ws, wo;
    Tensor ds = serial.backwardWeights(in, grad, rs, ws);
    Tensor dov = pooled.backwardWeights(in, grad, ro, wo);
    EXPECT_TRUE(ds == dov);
    EXPECT_EQ(ws.macsSkipped, wo.macsSkipped);
    expectCacheUntouched(mix_s, serial_fe, "serial replay");
    expectCacheUntouched(mix_o, pooled_fe, "pooled replay");
}

TEST(FcReplay, EvictingEveryLineBetweenReplaysChangesNothing)
{
    // A persistent cache keeps its tags past the pass, and the server
    // ages them out between jobs. No replay holds an entry id across
    // that: owners come from the record, so dX and dW replayed after
    // every line of the cache is evicted equal the replays before,
    // bit for bit, and neither replay probes.
    Tensor in = duplicateRows(120, 20, 11, kSeed + 17);
    Rng rng(84);
    Tensor w({20, 9});
    w.fillNormal(rng);
    Tensor grad({120, 9});
    grad.fillNormal(rng);

    PipelineConfig pipe;
    pipe.persistent = true;
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
    FcEngine engine(fe, 24);
    fe.cache().setEpoch(1);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, fstats, nullptr, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    const McacheCounters mix = fe.cache().stats();
    ReuseStats b0, w0;
    const Tensor dx0 = engine.backwardInput(grad, w, record, b0);
    const Tensor dw0 = engine.backwardWeights(in, grad, record, w0);
    ASSERT_EQ(fe.cache().evictOlderThan(2), fstats.mix.mau);
    ReuseStats b1, w1;
    const Tensor dx1 = engine.backwardInput(grad, w, record, b1);
    const Tensor dw1 = engine.backwardWeights(in, grad, record, w1);
    EXPECT_TRUE(dx0 == dx1);
    EXPECT_TRUE(dw0 == dw1);
    EXPECT_GT(b0.macsSkipped, 0u);
    EXPECT_EQ(b1.macsSkipped, b0.macsSkipped);
    EXPECT_EQ(w1.macsSkipped, w0.macsSkipped);
    expectCacheUntouched(mix, fe, "replays around the eviction");
}

TEST(ConvReplay, EvictingEveryLineBetweenReplaysChangesNothing)
{
    // The FcReplay contract on the conv engine: every channel pass's
    // owners come from the record, so emptying the persistent cache
    // between two rounds of dX and dW replays changes no bit.
    Tensor in = similarInput(2, 4, 9, 9, 1e-3f, 93);
    Rng rng(94);
    const ConvSpec spec = convSpec(4, 7, 3, 1, 1);
    Tensor w({7, 4, 3, 3});
    w.fillNormal(rng);
    Tensor grad({2, 7, 9, 9});
    grad.fillNormal(rng);

    PipelineConfig pipe;
    pipe.persistent = true;
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
    ConvReuseEngine engine(fe, 16);
    fe.cache().setEpoch(1);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    const McacheCounters mix = fe.cache().stats();
    ReuseStats b0, w0;
    const Tensor dx0 = engine.backwardInput(grad, w, spec, 9, 9, record, b0);
    const Tensor dw0 = engine.backwardWeights(in, grad, spec, record, w0);
    ASSERT_EQ(fe.cache().evictOlderThan(2), fstats.mix.mau);
    ReuseStats b1, w1;
    const Tensor dx1 = engine.backwardInput(grad, w, spec, 9, 9, record, b1);
    const Tensor dw1 = engine.backwardWeights(in, grad, spec, record, w1);
    EXPECT_TRUE(dx0 == dx1);
    EXPECT_TRUE(dw0 == dw1);
    EXPECT_GT(b0.macsSkipped, 0u);
    EXPECT_EQ(b1.macsSkipped, b0.macsSkipped);
    EXPECT_EQ(w1.macsSkipped, w0.macsSkipped);
    expectCacheUntouched(mix, fe, "replays around the eviction");
}

TEST(AttentionReplay, EvictingEveryLineBetweenReplaysChangesNothing)
{
    // The same contract on the attention engine's input-gradient and
    // projection replays.
    Tensor x = duplicateRows(40, 10, 7, kSeed + 19);
    Rng rng(95);
    Tensor g({40, 10});
    g.fillNormal(rng);

    PipelineConfig pipe;
    pipe.persistent = true;
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
    AttentionEngine engine(fe, 24);
    fe.cache().setEpoch(1);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(x, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    const McacheCounters mix = fe.cache().stats();
    ReuseStats b0, p0;
    const Tensor dx0 = engine.backward(x, g, record, 0, b0);
    const Tensor proj0 = engine.backwardProjection(x, record, 0, p0);
    ASSERT_EQ(fe.cache().evictOlderThan(2), fstats.mix.mau);
    ReuseStats b1, p1;
    const Tensor dx1 = engine.backward(x, g, record, 0, b1);
    const Tensor proj1 = engine.backwardProjection(x, record, 0, p1);
    EXPECT_TRUE(dx0 == dx1);
    EXPECT_TRUE(proj0 == proj1);
    EXPECT_GT(b0.macsSkipped, 0u);
    EXPECT_EQ(b1.macsSkipped, b0.macsSkipped);
    EXPECT_EQ(p1.macsSkipped, p0.macsSkipped);
    expectCacheUntouched(mix, fe, "replays around the eviction");
}

TEST(AttentionWeightGrad, ProjectionBitIdenticalToExactWhenNoHits)
{
    Rng rng(85);
    Tensor x({12, 8});
    x.fillNormal(rng);
    Tensor g({12, 8});
    g.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    AttentionEngine engine(fe, 32);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(x, fstats, &record);
    ASSERT_EQ(fstats.mix.hit, 0);

    ReuseStats wstats;
    Tensor xtx = engine.backwardProjection(x, record, 0, wstats);
    Tensor ref = matmul(transpose2d(x), x);
    EXPECT_TRUE(xtx == ref);
    EXPECT_EQ(wstats.macsSkipped, 0u);

    // Feeding the replayed factor back into the input-gradient replay
    // reproduces the exact backward bit for bit.
    ReuseStats bstats;
    Tensor gin = engine.backward(x, g, record, 0, bstats, &xtx);
    Tensor bref = exactAttentionBackward(x, g);
    EXPECT_TRUE(gin == bref);
}

TEST(AttentionWeightGrad, ProjectionGroupSumsWithinTolerance)
{
    Tensor x = duplicateRows(16, 8, 4, kSeed + 17);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    AttentionEngine engine(fe, 24);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(x, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0);

    ReuseStats wstats;
    Tensor xtx = engine.backwardProjection(x, record, 0, wstats);
    Tensor ref = matmul(transpose2d(x), x);
    float scale = 0.0f;
    for (int64_t i = 0; i < ref.numel(); ++i)
        scale = std::max(scale, std::abs(ref[i]));
    EXPECT_LT(xtx.maxAbsDiff(ref), 1e-4f * scale)
        << "identical-row groups differ from exact only by summation "
           "order";
    EXPECT_GT(wstats.macsSkipped, 0u);
    // d*d MACs skipped per HIT token row.
    EXPECT_EQ(wstats.macsSkipped,
              static_cast<uint64_t>(fstats.mix.hit) * 8u * 8u);
}

TEST(AttentionWeightGrad, OverlappedProjectionBitIdenticalToSerial)
{
    Tensor x = duplicateRows(48, 10, 9, kSeed + 18);

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 16;
    DetectionFrontend serial_fe(kSets, kWays, kVersions, 32, kSeed,
                                serial_pipe);
    AttentionEngine serial(serial_fe, 24);

    PipelineConfig pooled_pipe = serial_pipe;
    pooled_pipe.threads = 4;
    DetectionFrontend pooled_fe(kSets, kWays, kVersions, 32, kSeed,
                                pooled_pipe);
    AttentionEngine pooled(pooled_fe, 24);

    ReuseStats fs, fo;
    SignatureRecord rs, ro;
    serial.forward(x, fs, &rs);
    pooled.forward(x, fo, &ro);

    const McacheCounters mix_s = serial_fe.cache().stats();
    const McacheCounters mix_o = pooled_fe.cache().stats();
    ReuseStats ws, wo;
    Tensor ps = serial.backwardProjection(x, rs, 0, ws);
    Tensor po = pooled.backwardProjection(x, ro, 0, wo);
    EXPECT_TRUE(ps == po);
    EXPECT_EQ(ws.macsSkipped, wo.macsSkipped);
    expectCacheUntouched(mix_s, serial_fe, "serial replay");
    expectCacheUntouched(mix_o, pooled_fe, "pooled replay");
}

// ---------------------------------------------------------------------
// NN-layer integration (MercuryContext::backwardReuse)
// ---------------------------------------------------------------------

TEST(LayerReplay, ConvLayerReplayEqualsExactBackwardAtZeroHits)
{
    Rng rng(61);
    Tensor in({1, 2, 6, 6});
    in.fillNormal(rng); // white noise: no hits at 32 bits
    Conv2dLayer layer(2, 4, 3, 1, 0, rng, /*layer_id=*/1);
    Tensor grad({1, 4, 4, 4});
    grad.fillNormal(rng);

    MercuryContext ctx(32);
    ctx.setBackwardReuse(true);
    layer.forward(in, &ctx);
    ASSERT_EQ(ctx.totals().mix.hit, 0);

    Tensor replayed = layer.backward(grad, &ctx);
    Tensor exact = layer.backward(grad, nullptr);
    EXPECT_TRUE(replayed == exact);
    EXPECT_GT(ctx.backwardTotals().mix.vectors, 0);
    EXPECT_EQ(ctx.backwardTotals().macsSkipped, 0u);
}

TEST(LayerReplay, DenseLayerReplayEqualsExactBackwardAtZeroHits)
{
    Rng rng(62);
    Tensor in({8, 12});
    in.fillNormal(rng);
    DenseLayer layer(12, 5, rng, /*layer_id=*/2);
    Tensor grad({8, 5});
    grad.fillNormal(rng);

    MercuryContext ctx(32);
    ctx.setBackwardReuse(true);
    layer.forward(in, &ctx);
    ASSERT_EQ(ctx.totals().mix.hit, 0);

    Tensor replayed = layer.backward(grad, &ctx);
    Tensor exact = layer.backward(grad, nullptr);
    EXPECT_TRUE(replayed == exact);
}

TEST(LayerReplay, AttentionLayerReplayEqualsExactBackwardAtZeroHits)
{
    Rng rng(63);
    Tensor in({2, 6 * 8});
    in.fillNormal(rng);
    SelfAttentionLayer layer(6, 8, /*layer_id=*/3, 0.25f);
    Tensor grad({2, 6 * 8});
    grad.fillNormal(rng);

    MercuryContext ctx(32);
    ctx.setBackwardReuse(true);
    layer.forward(in, &ctx);
    ASSERT_EQ(ctx.totals().mix.hit, 0);

    Tensor replayed = layer.backward(grad, &ctx);
    Tensor exact = layer.backward(grad, nullptr);
    EXPECT_TRUE(replayed == exact);
}

TEST(LayerReplay, WithoutKnobBackwardIsExactEvenWithContext)
{
    Rng rng(64);
    Tensor in({1, 2, 6, 6});
    in.fillNormal(rng);
    Conv2dLayer layer(2, 3, 3, 1, 0, rng, /*layer_id=*/4);
    Tensor grad({1, 3, 4, 4});
    grad.fillNormal(rng);

    MercuryContext ctx(16); // knob off
    layer.forward(in, &ctx);
    Tensor with_ctx = layer.backward(grad, &ctx);
    Tensor exact = layer.backward(grad, nullptr);
    EXPECT_TRUE(with_ctx == exact);
    EXPECT_EQ(ctx.backwardTotals().mix.vectors, 0);
}

TEST(LayerReplay, TrainingStepRunsWithBackwardReuse)
{
    Dataset ds = makeImageDataset(4, 2, 2, 8, kSeed, 0.01f);
    Rng rng(65);
    Network net;
    net.add(std::make_unique<Conv2dLayer>(2, 4, 3, 1, 1, rng, 1));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<DenseLayer>(4 * 8 * 8, 2, rng, 2));

    MercuryContext ctx(16);
    ctx.setBackwardReuse(true);
    const float loss = net.trainBatch(ds.inputs, ds.labels, 0.01f, &ctx);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(ctx.totals().mix.vectors, 0);
    EXPECT_GT(ctx.backwardTotals().mix.vectors, 0);
    // The conv layer's backward replay covers the same vector
    // population its forward detection covered.
    EXPECT_EQ(ctx.backwardTotals().mix.hit, ctx.totals().mix.hit);
}

// ---------------------------------------------------------------------
// SignatureRecord spill accounting (records held forward -> backward)
// ---------------------------------------------------------------------

TEST(RecordSpill, DataflowEstimateMatchesCapturedRecord)
{
    // The timing model's per-layer spill estimate must equal what the
    // functional engine actually records for the same geometry.
    Rng rng(99);
    Tensor in({2, 3, 8, 8});
    in.fillNormal(rng);
    const ConvSpec spec = convSpec(3, 5, 3, 1, 1);
    Tensor w({5, 3, 3, 3});
    w.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 16);
    ReuseStats stats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, stats, &record);

    const auto df = Dataflow::create(AcceleratorConfig{});
    const LayerShape shape =
        LayerShape::conv("conv", 3, 5, 8, 8, 3, 1, 1);
    EXPECT_EQ(record.storageBytes(),
              df->recordSpillBytes(shape, 2, 16));
}

// ---------------------------------------------------------------------
// NN-layer integration (MercuryContext::weightGradReuse)
// ---------------------------------------------------------------------

TEST(LayerWeightGrad, ConvLayerReplayedDwEqualsExactAtZeroHits)
{
    // Two identically initialized layers: one steps on the replayed
    // dW, one on the exact dW. At zero hits the weights must stay bit
    // for bit in lockstep.
    Rng rng_a(66), rng_b(66);
    Conv2dLayer reuse_layer(2, 4, 3, 1, 0, rng_a, /*layer_id=*/11);
    Conv2dLayer exact_layer(2, 4, 3, 1, 0, rng_b, /*layer_id=*/11);
    Rng rng(67);
    Tensor in({1, 2, 6, 6});
    in.fillNormal(rng); // white noise: no hits at 32 bits
    Tensor grad({1, 4, 4, 4});
    grad.fillNormal(rng);

    MercuryContext ctx(32);
    ctx.setWeightGradReuse(true);
    reuse_layer.forward(in, &ctx);
    ASSERT_EQ(ctx.totals().mix.hit, 0);
    exact_layer.forward(in, nullptr);

    reuse_layer.backward(grad, &ctx);
    exact_layer.backward(grad, nullptr);
    reuse_layer.step(0.01f);
    exact_layer.step(0.01f);
    EXPECT_TRUE(reuse_layer.weights() == exact_layer.weights());
    EXPECT_GT(ctx.weightGradTotals().mix.vectors, 0);
    EXPECT_EQ(ctx.weightGradTotals().macsSkipped, 0u);
    // The knob affects only dW: the input gradient stayed exact.
    EXPECT_EQ(ctx.backwardTotals().mix.vectors, 0);
}

TEST(LayerWeightGrad, DenseLayerReplayedDwEqualsExactAtZeroHits)
{
    Rng rng_a(68), rng_b(68);
    DenseLayer reuse_layer(12, 5, rng_a, /*layer_id=*/12);
    DenseLayer exact_layer(12, 5, rng_b, /*layer_id=*/12);
    Rng rng(69);
    Tensor in({8, 12});
    in.fillNormal(rng);
    Tensor grad({8, 5});
    grad.fillNormal(rng);

    MercuryContext ctx(32);
    ctx.setWeightGradReuse(true);
    reuse_layer.forward(in, &ctx);
    ASSERT_EQ(ctx.totals().mix.hit, 0);
    exact_layer.forward(in, nullptr);

    reuse_layer.backward(grad, &ctx);
    exact_layer.backward(grad, nullptr);
    reuse_layer.step(0.01f);
    exact_layer.step(0.01f);
    EXPECT_TRUE(reuse_layer.weights() == exact_layer.weights());
    EXPECT_GT(ctx.weightGradTotals().mix.vectors, 0);
}

TEST(LayerWeightGrad, AttentionLayerReplayedProjectionEqualsExactAtZeroHits)
{
    Rng rng(70);
    Tensor in({2, 6 * 8});
    in.fillNormal(rng);
    SelfAttentionLayer layer(6, 8, /*layer_id=*/13, 0.25f);
    Tensor grad({2, 6 * 8});
    grad.fillNormal(rng);

    MercuryContext ctx(32);
    ctx.setWeightGradReuse(true); // projection replay, exact dX path
    layer.forward(in, &ctx);
    ASSERT_EQ(ctx.totals().mix.hit, 0);

    Tensor replayed = layer.backward(grad, &ctx);
    Tensor exact = layer.backward(grad, nullptr);
    EXPECT_TRUE(replayed == exact);
    EXPECT_GT(ctx.weightGradTotals().mix.vectors, 0);
}

TEST(LayerWeightGrad, TrainingStepRunsWithBothReplayKnobs)
{
    Dataset ds = makeImageDataset(4, 2, 2, 8, kSeed, 0.01f);
    Rng rng(77);
    Network net;
    net.add(std::make_unique<Conv2dLayer>(2, 4, 3, 1, 1, rng, 21));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<FlattenLayer>());
    net.add(std::make_unique<DenseLayer>(4 * 8 * 8, 2, rng, 22));

    MercuryContext ctx(16);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);
    const float loss = net.trainBatch(ds.inputs, ds.labels, 0.01f, &ctx);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(ctx.totals().mix.vectors, 0);
    EXPECT_GT(ctx.backwardTotals().mix.vectors, 0);
    EXPECT_GT(ctx.weightGradTotals().mix.vectors, 0);
    // One captured detection pass feeds forward, dX, and dW: all
    // three see the same hit population.
    EXPECT_EQ(ctx.weightGradTotals().mix.hit, ctx.totals().mix.hit);
    EXPECT_EQ(ctx.weightGradTotals().mix.vectors,
              ctx.totals().mix.vectors);
}

// ---------------------------------------------------------------------
// Snapshot-restored records replay bit for bit: restore derives the
// owner map the live probe resolved, and dX and dW read it alike
// ---------------------------------------------------------------------

void
expectSameStats(const ReuseStats &a, const ReuseStats &b, const char *what)
{
    EXPECT_EQ(a.mix.vectors, b.mix.vectors) << what;
    EXPECT_EQ(a.mix.hit, b.mix.hit) << what;
    EXPECT_EQ(a.mix.mau, b.mix.mau) << what;
    EXPECT_EQ(a.mix.mnu, b.mix.mnu) << what;
    EXPECT_EQ(a.macsTotal, b.macsTotal) << what;
    EXPECT_EQ(a.macsSkipped, b.macsSkipped) << what;
    EXPECT_EQ(a.channelPasses, b.channelPasses) << what;
}

void
expectSameBits(const Tensor &a, const Tensor &b, const char *what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) *
                                 sizeof(float)))
        << what;
}

/** `record` through a serialized snapshot and back. */
SignatureRecord
throughSnapshot(const SignatureRecord &record)
{
    Snapshot snap;
    snap.addRecord(9, record);
    const std::vector<uint8_t> bytes = snap.serialize();
    Snapshot parsed;
    std::string error;
    SignatureRecord back;
    EXPECT_TRUE(Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    EXPECT_TRUE(parsed.restoreRecord(9, record.entries(),
                                     record.dataVersions(), back, error))
        << error;
    EXPECT_EQ(back.passCount(), record.passCount());
    for (int64_t p = 0; p < std::min(back.passCount(), record.passCount());
         ++p) {
        EXPECT_TRUE(back.pass(p).owners == record.pass(p).owners)
            << "pass " << p;
        EXPECT_EQ(back.pass(p).forwarded, record.pass(p).forwarded)
            << "pass " << p;
    }
    return back;
}

TEST(RecordSnapshot, RestoredConvRecordReplaysBitForBit)
{
    Tensor in = similarInput(2, 4, 10, 10, 1e-3f, 71);
    Rng rng(72);
    const ConvSpec spec = convSpec(4, 6, 3, 1, 1);
    Tensor w({6, 4, 3, 3});
    w.fillNormal(rng);
    Tensor grad({2, 6, spec.outH(10), spec.outW(10)});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    ConvReuseEngine engine(fe, 16);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);
    ASSERT_GT(fstats.mix.hit, 0);
    const SignatureRecord back = throughSnapshot(record);

    ReuseStats live, restored;
    expectSameBits(engine.backwardInput(grad, w, spec, 10, 10, record, live),
                   engine.backwardInput(grad, w, spec, 10, 10, back,
                                        restored),
                   "conv dX");
    expectSameStats(live, restored, "conv dX");
    expectSameBits(engine.backwardWeights(in, grad, spec, record, live),
                   engine.backwardWeights(in, grad, spec, back, restored),
                   "conv dW");
    expectSameStats(live, restored, "conv dW");
    EXPECT_GT(live.macsSkipped, 0u);
}

TEST(RecordSnapshot, RestoredFcRecordReplaysBitForBit)
{
    Tensor in = duplicateRows(30, 12, 6, kSeed + 9);
    Rng rng(73);
    Tensor w({12, 7});
    w.fillNormal(rng);
    Tensor grad({30, 7});
    grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed);
    FcEngine engine(fe, 24);
    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, fstats, nullptr, &record);
    ASSERT_GT(fstats.mix.hit, 0);
    const SignatureRecord back = throughSnapshot(record);

    ReuseStats live, restored;
    expectSameBits(engine.backwardInput(grad, w, record, live),
                   engine.backwardInput(grad, w, back, restored), "FC dX");
    expectSameStats(live, restored, "FC dX");
    expectSameBits(engine.backwardWeights(in, grad, record, live),
                   engine.backwardWeights(in, grad, back, restored),
                   "FC dW");
    expectSameStats(live, restored, "FC dW");
    EXPECT_GT(live.macsSkipped, 0u);
}

// ---------------------------------------------------------------------
// Concurrent replay consumption (TSan stress)
// ---------------------------------------------------------------------

TEST(ReplayStress, ConcurrentConsumersOnSharedPool)
{
    // Several pooled backward passes in a row over a record with real
    // hits: the replay's per-pass fan-out races on the pool. Run under
    // TSan in CI.
    Tensor in = similarInput(1, 8, 12, 12, 1e-3f, 95);
    Rng rng(96);
    const ConvSpec spec = convSpec(8, 12, 3, 1, 1);
    Tensor w({12, 8, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 12, 12, 12});
    grad.fillNormal(rng);

    PipelineConfig pipe;
    pipe.blockRows = 8; // many blocks -> many hash tasks
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
    ConvReuseEngine engine(fe, 16);

    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);

    Tensor first;
    for (int round = 0; round < 3; ++round) {
        ReuseStats bstats;
        Tensor gin =
            engine.backwardInput(grad, w, spec, 12, 12, record, bstats);
        if (round == 0)
            first = gin;
        else
            ASSERT_TRUE(gin == first) << "replay must be deterministic";
    }
}

TEST(ReplayStress, ConcurrentWeightGradConsumersOnSharedPool)
{
    // The dW twin of the stress above: the (group, channel) pairs'
    // group sums and owner multiplies fan out over the pool. Run under
    // TSan and ASan+UBSan in CI — the scatter / accumulate paths are
    // exactly where heap and ordering bugs hide.
    Tensor in = similarInput(1, 8, 12, 12, 1e-3f, 97);
    Rng rng(98);
    const ConvSpec spec = convSpec(8, 12, 3, 1, 1);
    Tensor w({12, 8, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 12, 12, 12});
    grad.fillNormal(rng);

    PipelineConfig pipe;
    pipe.blockRows = 8; // many blocks -> many hash tasks
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
    ConvReuseEngine engine(fe, 16);

    ReuseStats fstats;
    SignatureRecord record;
    engine.forward(in, w, Tensor(), spec, fstats, &record);

    Tensor first;
    for (int round = 0; round < 3; ++round) {
        ReuseStats wstats;
        Tensor dw =
            engine.backwardWeights(in, grad, spec, record, wstats);
        if (round == 0)
            first = dw;
        else
            ASSERT_TRUE(dw == first)
                << "dW replay must be deterministic";
    }
}

} // namespace
} // namespace mercury
