/**
 * @file
 * Tests for the detection front-end (src/pipeline): a pass must be
 * bit-identical to the legacy SimilarityDetector for every block size
 * and thread count, reruns must be deterministic, a hash job may run
 * under the previous pass, the reuse engines must produce identical
 * outputs through a shared multi-threaded frontend, and the frontend
 * refuses knobs and jobs no pass can run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/similarity_detector.hpp"
#include "nn/mercury_hooks.hpp"
#include "pipeline/detection_frontend.hpp"
#include "util/rng.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kMaxBits = 32;
constexpr int kBits = 20;
constexpr uint64_t kSeed = 12345;

/** The scalar reference path: RPQ + MCACHE, row by row. */
DetectionResult
legacyDetect(const Tensor &rows, int bits = kBits, int max_bits = kMaxBits)
{
    MCache cache(kSets, kWays, 1);
    RPQEngine rpq(rows.dim(1), max_bits, kSeed);
    SimilarityDetector det(rpq, cache, bits);
    return det.detect(rows);
}

/** A pipeline pass equals the scalar detector's result, row by row. */
void
expectMatchesLegacy(const SignatureRecord::Pass &p, const DetectionResult &ref)
{
    ASSERT_EQ(p.rows, ref.hitmap.size());
    ASSERT_EQ(ref.table.size(), p.rows);
    for (int64_t i = 0; i < p.rows; ++i) {
        ASSERT_EQ(p.outcome(i), ref.hitmap.outcome(i))
            << "outcome diverges at row " << i;
        ASSERT_EQ(p.entryId(i), ref.hitmap.entryId(i))
            << "entry id diverges at row " << i;
        const Signature &sig = ref.table.signature(i);
        ASSERT_EQ(p.bits, sig.bits());
        ASSERT_EQ(p.sigWordsPerRow, Signature::wordsFor(sig.bits()));
        for (int w = 0; w < p.sigWordsPerRow; ++w)
            ASSERT_EQ(p.wordsOf(i)[w], sig.words()[w])
                << "signature word " << w << " diverges at row " << i;
    }
    const HitMix mb = ref.mix();
    EXPECT_EQ(p.mix.vectors, mb.vectors);
    EXPECT_EQ(p.mix.hit, mb.hit);
    EXPECT_EQ(p.mix.mau, mb.mau);
    EXPECT_EQ(p.mix.mnu, mb.mnu);
}

/** Two pipeline passes are equal field for field. */
void
expectIdenticalPasses(const SignatureRecord::Pass &a,
                      const SignatureRecord::Pass &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.sigWords, b.sigWords);
    EXPECT_EQ(a.entryIds, b.entryIds);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.mix.vectors, b.mix.vectors);
    EXPECT_EQ(a.mix.hit, b.mix.hit);
    EXPECT_EQ(a.mix.mau, b.mix.mau);
    EXPECT_EQ(a.mix.mnu, b.mix.mnu);
    EXPECT_EQ(a.owners, b.owners);
    EXPECT_EQ(a.forwarded, b.forwarded);
}

/**
 * (bits, d): one- and multi-word tags, partial last octets, and the
 * training shape (d 9 at 28 bits) against a mirror provisioned wider
 * than the pass, as a 128-bit frontend's is.
 */
class PipelineShape : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PipelineShape, BitIdenticalToLegacyAcrossAllKnobs)
{
    constexpr int kProvisioned = 128;
    const auto [bits, d] = GetParam();
    Tensor rows = prototypeVectors(512, d, 64, 0.01f, 77, 1.2);
    const DetectionResult ref = legacyDetect(rows, bits, kProvisioned);
    for (int64_t block : {int64_t{1}, int64_t{7}, int64_t{64},
                          int64_t{4096}}) {
        for (int threads : {1, 2, 4}) {
            PipelineConfig pipe;
            pipe.blockRows = block;
            pipe.threads = threads;
            DetectionFrontend fe(kSets, kWays, 1, kProvisioned, kSeed,
                                 pipe);
            SCOPED_TRACE("block=" + std::to_string(block) +
                         " threads=" + std::to_string(threads));
            expectMatchesLegacy(fe.detect(rows, bits), ref);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pipeline, PipelineShape,
    ::testing::Combine(::testing::Values(1, 20, 28, 64, 65, 100),
                       ::testing::Values(9, 24)));

TEST(Pipeline, DeterministicReruns)
{
    Tensor rows = prototypeVectors(300, 16, 40, 0.02f, 5, 1.5);
    PipelineConfig pipe;
    pipe.blockRows = 32;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    const SignatureRecord::Pass first = fe.detect(rows, kBits);
    // Same frontend again (cache cleared per pass) and a fresh
    // frontend with the same seed: all three must agree exactly.
    expectIdenticalPasses(fe.detect(rows, kBits), first);
    DetectionFrontend fresh(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    expectIdenticalPasses(fresh.detect(rows, kBits), first);
}

TEST(Pipeline, BlockedProjectionMatchesScalar)
{
    Rng rng(9);
    Tensor rows({37, 48});
    rows.fillNormal(rng);
    RPQEngine rpq(48, kMaxBits, 21);
    // The words entry writes signatureOfRow's packed words, from any
    // first row.
    std::vector<uint64_t> words(37);
    rpq.signatureWords(rows, 0, 37, kBits, words.data());
    for (int64_t r = 0; r < 37; ++r)
        ASSERT_EQ(words[static_cast<size_t>(r)],
                  rpq.signatureOfRow(rows, r, kBits).words()[0])
            << "row " << r;
    std::vector<uint64_t> tail(2);
    rpq.signatureWords(rows, 35, 37, kBits, tail.data());
    EXPECT_EQ(tail[0], words[35]);
    EXPECT_EQ(tail[1], words[36]);
    // Projections themselves must also match bit for bit.
    std::vector<float> proj(static_cast<size_t>(5) * kBits);
    rpq.projectBlock(rows, 8, 13, kBits, proj.data());
    for (int64_t r = 8; r < 13; ++r)
        for (int n = 0; n < kBits; ++n)
            ASSERT_EQ(proj[static_cast<size_t>((r - 8) * kBits + n)],
                      rpq.project(rows.data() + r * 48, n));
}

TEST(Pipeline, ConvEngineIdenticalThroughSharedThreadedFrontend)
{
    Dataset ds = makeImageDataset(2, 2, 3, 12, 13, 0.03f);
    Rng rng(14);
    Tensor w({4, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;

    MCache legacy_cache(kSets, kWays, 2);
    ConvReuseEngine legacy(legacy_cache, 16, kSeed);
    ReuseStats legacy_stats;
    const Tensor legacy_out =
        legacy.forward(ds.inputs, w, Tensor(), spec, legacy_stats);

    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 2, 16, kSeed, pipe);
    ConvReuseEngine piped(fe, 16);
    ReuseStats piped_stats;
    const Tensor piped_out =
        piped.forward(ds.inputs, w, Tensor(), spec, piped_stats);

    EXPECT_TRUE(piped_out == legacy_out);
    EXPECT_EQ(piped_stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(piped_stats.mix.mau, legacy_stats.mix.mau);
    EXPECT_EQ(piped_stats.mix.mnu, legacy_stats.mix.mnu);
    EXPECT_EQ(piped_stats.macsSkipped, legacy_stats.macsSkipped);
}

TEST(Pipeline, FcEngineIdenticalThroughSharedThreadedFrontend)
{
    Tensor input = prototypeVectors(96, 20, 12, 0.005f, 15);
    Rng rng(16);
    Tensor w({20, 10});
    w.fillNormal(rng);

    MCache legacy_cache(kSets, kWays, 1);
    FcEngine legacy(legacy_cache, 24, kSeed);
    ReuseStats legacy_stats;
    std::vector<int64_t> legacy_owners;
    const Tensor legacy_out =
        legacy.forward(input, w, legacy_stats, &legacy_owners);

    PipelineConfig pipe;
    pipe.blockRows = 8;
    pipe.threads = 3;
    DetectionFrontend fe(kSets, kWays, 1, 24, kSeed, pipe);
    FcEngine piped(fe, 24);
    ReuseStats piped_stats;
    std::vector<int64_t> piped_owners;
    const Tensor piped_out =
        piped.forward(input, w, piped_stats, &piped_owners);

    EXPECT_TRUE(piped_out == legacy_out);
    EXPECT_EQ(piped_owners, legacy_owners);
    EXPECT_EQ(piped_stats.macsSkipped, legacy_stats.macsSkipped);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3);
    std::vector<std::atomic<int>> visits(257);
    for (auto &v : visits)
        v.store(0);
    pool.parallelFor(257, [&](int64_t i) {
        visits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < visits.size(); ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyPoolRunsInline)
{
    ThreadPool pool(0);
    int64_t sum = 0;
    pool.parallelFor(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum, 4950);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7);
}

TEST(ThreadPool, NegativeThreadKnobDies)
{
    EXPECT_DEATH(ThreadPool::resolveThreads(-1), ">= 0");
}

TEST(Pipeline, MercuryContextCachesFrontendsAndMatchesLegacy)
{
    Tensor input = prototypeVectors(64, 12, 8, 0.005f, 19);
    Rng rng(20);
    Tensor w({12, 6});
    w.fillNormal(rng);

    // A private MCACHE with the context's default organization.
    MercuryContext legacy_ctx(16);
    MCache legacy_cache(64, 16, 4);
    FcEngine legacy(legacy_cache, 16, legacy_ctx.layerSeed(3));
    ReuseStats legacy_stats;
    const Tensor legacy_out = legacy.forward(input, w, legacy_stats);

    MercuryContext ctx(16);
    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.threads = 3;
    ctx.setPipeline(pipe);
    DetectionFrontend &fe = ctx.frontendFor(3);
    EXPECT_EQ(&fe, &ctx.frontendFor(3)); // cached across passes
    FcEngine piped(fe, 16);
    ReuseStats piped_stats;
    const Tensor piped_out = piped.forward(input, w, piped_stats);

    EXPECT_TRUE(piped_out == legacy_out);
    EXPECT_EQ(piped_stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(piped_stats.mix.mau, legacy_stats.mix.mau);
}

/**
 * An (h, w) plane of a 4 x 5 motif plus 1% noise: most of its patches
 * repeat, so a pass over them hits.
 */
Tensor
patternedPlane(int64_t h, int64_t w, uint64_t seed)
{
    Rng rng(seed);
    float motif[4][5];
    for (auto &row : motif)
        for (float &x : row)
            x = static_cast<float>(rng.normal());
    Tensor plane({1, 1, h, w});
    for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < w; ++x)
            plane[y * w + x] = motif[y % 4][x % 5] +
                               0.01f * static_cast<float>(rng.normal());
    return plane;
}

/** One channel's conv frame, loaded: the conv pass source. */
struct LoadedFrame
{
    ConvFrame geometry;
    std::vector<float> data;

    LoadedFrame(const ConvSpec &spec, const Tensor &plane)
        : geometry(spec, plane.dim(2), plane.dim(3)),
          data(static_cast<size_t>(geometry.size()))
    {
        geometry.load(plane.data(), 1, data.data());
    }
};

/** OwnerTable's owner map over the scalar detector's outcomes. */
std::vector<int32_t>
legacyOwners(const DetectionResult &ref)
{
    OwnerTable table(int64_t{kSets} * kWays);
    std::vector<int32_t> owners;
    for (int64_t i = 0; i < static_cast<int64_t>(ref.hitmap.size()); ++i)
        owners.push_back(table.ownerOf(static_cast<int32_t>(i),
                                       ref.hitmap.outcome(i),
                                       ref.hitmap.entryId(i)));
    return owners;
}

TEST(Frontend, FramePassesMatchTheDetectorOnIm2colRows)
{
    // The conv pass source hashes a frame's output positions; its pass
    // must be the scalar detector's over the plane's im2col rows —
    // words, outcomes, entry ids, owners and mix — at any block size
    // (1, ragged, auto) and thread count.
    ConvSpec same; // 3x3, stride 1, pad 1
    same.kernelH = same.kernelW = 3;
    same.pad = 1;
    ConvSpec strided; // 5x5, stride 2, pad 2
    strided.kernelH = strided.kernelW = 5;
    strided.stride = 2;
    strided.pad = 2;
    const std::pair<ConvSpec, Tensor> cases[] = {
        {same, patternedPlane(30, 26, 5)},
        {strided, patternedPlane(23, 19, 6)}};
    for (const auto &[spec, plane] : cases) {
        const LoadedFrame frame(spec, plane);
        const DetectionResult ref = legacyDetect(im2col(plane, spec));
        EXPECT_GT(ref.mix().hit, 0) << "the plane must produce hits";
        for (int threads : {1, 4}) {
            for (int64_t block : {int64_t{1}, int64_t{5}, int64_t{48},
                                  int64_t{0}}) {
                SCOPED_TRACE("k=" + std::to_string(spec.kernelH) +
                             " threads=" + std::to_string(threads) +
                             " block=" + std::to_string(block));
                PipelineConfig pipe;
                pipe.blockRows = block;
                pipe.threads = threads;
                DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
                DetectionHashJob job;
                fe.beginHashStream(job, frame.geometry, frame.data.data(),
                                   kBits);
                const SignatureRecord::Pass pass = fe.finishStream(job);
                expectMatchesLegacy(pass, ref);
                EXPECT_EQ(pass.owners, legacyOwners(ref));
            }
        }
    }
}

TEST(Frontend, HashJobRunsUnderThePreviousPass)
{
    // The conv forward's shape: pass B's hash job begins over B's frame
    // right after pass A's probe, while A's frame is still read. Each
    // pass must equal the scalar detector's over its im2col rows, and
    // A's frame stays unmodified while B hashes.
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    const Tensor a_plane = patternedPlane(25, 20, 77); // 500 rows
    const Tensor b_plane = patternedPlane(15, 20, 78); // 300 rows
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PipelineConfig pipe;
        pipe.blockRows = 48; // ragged last block in both passes
        pipe.threads = threads;
        DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
        const LoadedFrame a(spec, a_plane), b(spec, b_plane);
        const std::vector<float> a_copy = a.data;

        DetectionHashJob job;
        fe.beginHashStream(job, a.geometry, a.data.data(), kBits);
        const SignatureRecord::Pass a_pass = fe.finishStream(job);
        fe.beginHashStream(job, b.geometry, b.data.data(), kBits);
        EXPECT_EQ(a.data, a_copy) << "A's frame changed while B hashes";
        const SignatureRecord::Pass b_pass = fe.finishStream(job);
        EXPECT_EQ(a.data, a_copy);

        expectMatchesLegacy(a_pass, legacyDetect(im2col(a_plane, spec)));
        expectMatchesLegacy(b_pass, legacyDetect(im2col(b_plane, spec)));
    }
}

TEST(Frontend, InlineJobHashesInsideFinishStream)
{
    // Without a pool, beginHashStream reads nothing: a frame written
    // after it begins is the one that gets hashed.
    ConvSpec spec;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    const Tensor plane = patternedPlane(13, 10, 3); // 130 rows
    PipelineConfig pipe;
    pipe.blockRows = 32;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    ASSERT_EQ(fe.workerPool(), nullptr);
    const ConvFrame geometry(spec, 13, 10);
    std::vector<float> frame(static_cast<size_t>(geometry.size()), 0.0f);
    DetectionHashJob job;
    fe.beginHashStream(job, geometry, frame.data(), kBits);
    geometry.load(plane.data(), 1, frame.data());
    const SignatureRecord::Pass pass = fe.finishStream(job);
    expectMatchesLegacy(pass, legacyDetect(im2col(plane, spec)));
}

TEST(Frontend, HugeBlockSizeHashesEveryRow)
{
    // A block size near INT64_MAX makes one block of every row: counting
    // blocks as (n + blockRows - 1) / blockRows overflowed, leaving a
    // pass unhashed and unprobed (every row a HIT owned by row 0, words
    // 0, mix 0/0/0) or throwing length_error. Each pass must equal the
    // 64-row-block pass, owners and mix included.
    const Tensor rows = prototypeVectors(150, 24, 20, 0.01f, 31, 1.5);
    PipelineConfig ref_pipe;
    ref_pipe.blockRows = 64;
    DetectionFrontend ref_fe(kSets, kWays, 1, kMaxBits, kSeed, ref_pipe);
    const SignatureRecord::Pass want = ref_fe.detect(rows, kBits);
    ASSERT_GT(want.mix.hit, 0);
    for (const int threads : {1, 2}) {
        for (const int64_t block :
             {INT64_MAX, INT64_MAX - 7, int64_t{1} << 62}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " block=" + std::to_string(block));
            PipelineConfig pipe;
            pipe.blockRows = block;
            pipe.threads = threads;
            DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
            expectIdenticalPasses(fe.detect(rows, kBits), want);
        }
    }
}

TEST(Frontend, SecondForwardRefillsTheRecordsBuffers)
{
    // Pass storage outlives the pass: a layer's second forward refills
    // the buffers its record captured in the first — words, outcomes,
    // entry ids and owners of every pass — instead of allocating, and
    // its passes equal those captured into a fresh record.
    const Dataset a = makeImageDataset(2, 2, 3, 12, 12, 0.03f);
    const Dataset b = makeImageDataset(2, 2, 3, 12, 12, 0.05f, 7);
    Rng rng(15);
    Tensor w({4, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    const auto buffers = [](const SignatureRecord &r) {
        std::set<const void *> p;
        for (int64_t i = 0; i < r.passCount(); ++i) {
            const SignatureRecord::Pass &pass = r.pass(i);
            p.insert(pass.sigWords.data());
            p.insert(pass.outcomes.data());
            p.insert(pass.entryIds.data());
            p.insert(pass.owners.data());
        }
        return p;
    };
    DetectionFrontend fe(kSets, kWays, 2, kMaxBits, kSeed);
    ConvReuseEngine engine(fe, kBits);
    ReuseStats stats;
    SignatureRecord record;
    engine.forward(a.inputs, w, Tensor(), spec, stats, &record);
    ASSERT_EQ(record.passCount(), 6);
    const std::set<const void *> first = buffers(record);
    ASSERT_EQ(first.size(), 24u);

    const Tensor out = engine.forward(b.inputs, w, Tensor(), spec, stats,
                                      &record);
    EXPECT_EQ(buffers(record), first);
    SignatureRecord fresh;
    const Tensor fresh_out =
        engine.forward(b.inputs, w, Tensor(), spec, stats, &fresh);
    EXPECT_TRUE(out == fresh_out);
    ASSERT_EQ(record.passCount(), fresh.passCount());
    for (int64_t i = 0; i < record.passCount(); ++i)
        expectIdenticalPasses(record.pass(i), fresh.pass(i));
}

TEST(Frontend, SignatureBitsOutsideTheEngineDie)
{
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed);
    Tensor rows({8, 4});
    EXPECT_DEATH(fe.detect(rows, 0), "outside engine range");
    EXPECT_DEATH(fe.detect(rows, kMaxBits + 1), "outside engine range");
}

TEST(Frontend, NegativeBlockSizeDies)
{
    PipelineConfig pipe;
    pipe.blockRows = -1;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    Tensor rows({8, 4});
    EXPECT_DEATH(fe.detect(rows, kBits), "block size must be positive");
}

TEST(Frontend, JobFinishedOnAnotherCacheDies)
{
    DetectionFrontend a(kSets, kWays, 1, kMaxBits, kSeed);
    DetectionFrontend b(kSets, kWays, 1, kMaxBits, kSeed);
    Tensor rows({8, 4});
    EXPECT_DEATH(
        {
            DetectionHashJob job;
            a.beginHashStream(job, rows, kBits);
            b.finishStream(job);
        },
        "different cache");
}

/** Engine outputs on a pool vs threads 1, all three engine types. */
TEST(Overlap, ConvEngineBitIdenticalToRunThenFilter)
{
    Dataset ds = makeImageDataset(2, 2, 3, 14, 13, 0.03f);
    Rng rng(14);
    Tensor w({6, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 6; // > versions: exercises the group-0 chains
                          // AND the post-detection parallel groups
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 16;
    DetectionFrontend serial_fe(kSets, kWays, 2, 16, kSeed, serial_pipe);
    ConvReuseEngine serial(serial_fe, 16);
    ReuseStats serial_stats;
    const Tensor serial_out =
        serial.forward(ds.inputs, w, Tensor(), spec, serial_stats);

    PipelineConfig pipe = serial_pipe;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 2, 16, kSeed, pipe);
    ConvReuseEngine pooled(fe, 16);
    ReuseStats stats;
    const Tensor out =
        pooled.forward(ds.inputs, w, Tensor(), spec, stats);

    EXPECT_TRUE(out == serial_out);
    EXPECT_EQ(stats.mix.hit, serial_stats.mix.hit);
    EXPECT_EQ(stats.mix.mau, serial_stats.mix.mau);
    EXPECT_EQ(stats.mix.mnu, serial_stats.mix.mnu);
    EXPECT_EQ(stats.macsSkipped, serial_stats.macsSkipped);
    EXPECT_EQ(stats.macsTotal, serial_stats.macsTotal);
}

TEST(Overlap, FcEngineBitIdenticalToRunThenFilter)
{
    Tensor input = prototypeVectors(160, 20, 24, 0.005f, 15);
    Rng rng(16);
    Tensor w({20, 10});
    w.fillNormal(rng);

    MCache legacy_cache(kSets, kWays, 1);
    FcEngine legacy(legacy_cache, 24, kSeed);
    ReuseStats legacy_stats;
    std::vector<int64_t> legacy_owners;
    const Tensor legacy_out =
        legacy.forward(input, w, legacy_stats, &legacy_owners);

    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.threads = 3;
    DetectionFrontend fe(kSets, kWays, 1, 24, kSeed, pipe);
    FcEngine pooled(fe, 24);
    ReuseStats stats;
    std::vector<int64_t> owners;
    const Tensor out = pooled.forward(input, w, stats, &owners);

    EXPECT_TRUE(out == legacy_out);
    EXPECT_EQ(owners, legacy_owners);
    EXPECT_EQ(stats.macsSkipped, legacy_stats.macsSkipped);
    EXPECT_EQ(stats.mix.hit, legacy_stats.mix.hit);
}

TEST(Overlap, AttentionEngineBitIdenticalToRunThenFilter)
{
    Tensor x = prototypeVectors(96, 16, 12, 0.004f, 23, 1.1);

    MCache legacy_cache(kSets, kWays, 1);
    AttentionEngine legacy(legacy_cache, 20, kSeed);
    ReuseStats legacy_stats;
    const Tensor legacy_out = legacy.forward(x, legacy_stats);

    PipelineConfig pipe;
    pipe.blockRows = 8;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, 20, kSeed, pipe);
    AttentionEngine pooled(fe, 20);
    ReuseStats stats;
    const Tensor out = pooled.forward(x, stats);

    EXPECT_TRUE(out == legacy_out);
    EXPECT_EQ(stats.macsSkipped, legacy_stats.macsSkipped);
    EXPECT_EQ(stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(stats.mix.mau, legacy_stats.mix.mau);
}

TEST(SpscQueue, DeliversInOrderAcrossThreads)
{
    SpscQueue<int64_t> q;
    constexpr int64_t kItems = 2000;
    std::thread producer([&] {
        for (int64_t i = 0; i < kItems; ++i)
            q.push(i);
        q.close();
    });
    int64_t expected = 0, got = -1;
    while (q.pop(got)) {
        ASSERT_EQ(got, expected);
        ++expected;
    }
    EXPECT_EQ(expected, kItems);
    producer.join();
    // Closed and drained: pop keeps returning false.
    EXPECT_FALSE(q.pop(got));
    EXPECT_FALSE(q.tryPop(got));
}

TEST(SpscQueue, PushAfterCloseDies)
{
    SpscQueue<int> q;
    q.close();
    EXPECT_DEATH(q.push(1), "closed");
}

TEST(Pipeline, ConfigKnobsLiftFromAcceleratorConfig)
{
    AcceleratorConfig cfg;
    cfg.pipelineBlockRows = 128;
    cfg.pipelineThreads = 0;
    const PipelineConfig pipe = PipelineConfig::fromConfig(cfg);
    EXPECT_EQ(pipe.blockRows, 128);
    EXPECT_EQ(pipe.threads, 0);

    // A frontend built straight from the accelerator config inherits
    // the MCACHE organization and provisioning.
    DetectionFrontend fe(cfg, 7);
    EXPECT_EQ(fe.entries(), cfg.mcacheEntries());
    EXPECT_EQ(fe.maxBits(), cfg.maxSignatureBits);
    EXPECT_EQ(fe.dataVersions(), cfg.mcacheDataVersions);
    Tensor rows = prototypeVectors(64, 8, 8, 0.01f, 7);
    const HitMix mix = fe.detect(rows, 16).mix;
    EXPECT_TRUE(mix.consistent());
    EXPECT_EQ(mix.vectors, 64);
}

TEST(Pipeline, ResolvedBlockRowsTracksPassBand)
{
    // Explicit values pass through untouched.
    PipelineConfig pipe;
    pipe.blockRows = 7;
    EXPECT_EQ(pipe.resolvedFor(12544).blockRows, 7);

    // 0 = auto: the tunedPipelineFor band for the pass size — the
    // stock 64-row blocks up to 4096 rows, 128 above. An empty pass
    // resolves as a one-row pass.
    pipe.blockRows = 0;
    EXPECT_EQ(pipe.resolvedFor(0).blockRows, 64);
    EXPECT_EQ(pipe.resolvedFor(4096).blockRows, 64);
    EXPECT_EQ(pipe.resolvedFor(4097).blockRows, 128);
    EXPECT_EQ(pipe.resolvedFor(12544).blockRows, 128);
    // The stored knob stays auto; only the resolved copy changes.
    EXPECT_EQ(pipe.blockRows, 0);
}

TEST(Pipeline, AutoBlockFrontendMatchesExplicitBlock)
{
    // Detection results are bit-identical across block sizes, so the
    // auto band must change nothing observable, on either side of it.
    for (int64_t n : {int64_t{96}, int64_t{4500}}) {
        SCOPED_TRACE("rows=" + std::to_string(n));
        Tensor rows = prototypeVectors(n, 10, 9, 0.01f, 11);
        PipelineConfig auto_pipe;
        auto_pipe.blockRows = 0;
        auto_pipe.threads = 4;
        DetectionFrontend auto_fe(32, 8, 2, kMaxBits, 13, auto_pipe);
        PipelineConfig fixed_pipe;
        fixed_pipe.blockRows = tunedPipelineFor(n);
        fixed_pipe.threads = 4;
        DetectionFrontend fixed_fe(32, 8, 2, kMaxBits, 13, fixed_pipe);
        expectIdenticalPasses(auto_fe.detect(rows, 20),
                              fixed_fe.detect(rows, 20));
    }
}

} // namespace
} // namespace mercury
