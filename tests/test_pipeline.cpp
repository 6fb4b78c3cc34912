/**
 * @file
 * Tests for the streaming detection pipeline (src/pipeline): the
 * ShardedMCache must be indistinguishable from a monolithic MCache,
 * the DetectionPipeline must be bit-identical to the legacy
 * SimilarityDetector for every block size / shard count / thread
 * count, reruns must be deterministic, the reuse engines must produce
 * identical outputs through a shared multi-threaded frontend, and the
 * fixed strided sampling must cover the population tail.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/similarity_detector.hpp"
#include "nn/mercury_hooks.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/sharded_mcache.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"
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

/** The scalar reference path: RPQ + monolithic MCACHE, row by row. */
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
        for (int shards : {1, 3, 4, 64}) {
            for (int threads : {1, 2, 4}) {
                PipelineConfig pipe;
                pipe.blockRows = block;
                pipe.shards = shards;
                pipe.threads = threads;
                DetectionFrontend fe(kSets, kWays, 1, kProvisioned, kSeed,
                                     pipe);
                SCOPED_TRACE("block=" + std::to_string(block) +
                             " shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
                expectMatchesLegacy(fe.detect(rows, bits), ref);
            }
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
    pipe.shards = 8;
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

TEST(ShardedMCache, MatchesMonolithicCache)
{
    MCache mono(37, 4, 2); // deliberately not a power of two
    ShardedMCache sharded(37, 4, 2, 5);
    EXPECT_EQ(sharded.entries(), mono.entries());
    EXPECT_EQ(sharded.shardCount(), 5);

    Rng rng(31);
    RPQEngine rpq(12, kMaxBits, 3);
    Tensor rows({400, 12});
    rows.fillNormal(rng);
    for (int64_t i = 0; i < rows.dim(0); ++i) {
        const Signature sig = rpq.signatureOfRow(rows, i, 24);
        const McacheResult a = mono.lookupOrInsert(sig);
        const McacheResult b = sharded.lookupOrInsert(sig);
        ASSERT_EQ(a.outcome, b.outcome) << "row " << i;
        ASSERT_EQ(a.entryId, b.entryId) << "row " << i;
    }
    EXPECT_EQ(sharded.maxInsertBacklog(), mono.maxInsertBacklog());
    const HitMix mix = sharded.lookupMix();
    EXPECT_TRUE(mix.consistent());
    EXPECT_EQ(mix.vectors, 400);
}

TEST(ShardedMCache, ShardCountClampedToSets)
{
    ShardedMCache sharded(4, 2, 1, 100);
    EXPECT_EQ(sharded.shardCount(), 4);
    EXPECT_EQ(sharded.entries(), 8);
}

TEST(ShardedMCache, FrontendEngagesLocksOnlyForOverlappedPasses)
{
    Tensor rows = prototypeVectors(64, 8, 8, 0.01f, 7);
    // Shard locks engage only for passes that resolved overlapped on
    // a pool. Probes only ever run on the driving thread — a single
    // prober — so inline passes and pooled passes with overlap off
    // stay lock-free. Results are identical either way (asserted
    // across the knob grid elsewhere).
    PipelineConfig inline_pipe;
    inline_pipe.threads = 1;
    DetectionFrontend inline_fe(kSets, kWays, 1, kMaxBits, kSeed,
                                inline_pipe);
    EXPECT_TRUE(inline_fe.cache().concurrent()); // construction default
    inline_fe.detect(rows, kBits);
    EXPECT_FALSE(inline_fe.cache().concurrent());

    PipelineConfig pooled_pipe;
    pooled_pipe.threads = 3;
    DetectionFrontend pooled_fe(kSets, kWays, 1, kMaxBits, kSeed,
                                pooled_pipe);
    pooled_fe.detect(rows, kBits);
    EXPECT_FALSE(pooled_fe.cache().concurrent()); // overlap off: free

    pooled_fe.detectStream(rows, kBits, {});
    EXPECT_FALSE(pooled_fe.cache().concurrent()); // one prober: free

    PipelineConfig overlap_pipe = pooled_pipe;
    overlap_pipe.overlap = OverlapMode::On;
    DetectionFrontend overlap_fe(kSets, kWays, 1, kMaxBits, kSeed,
                                 overlap_pipe);
    overlap_fe.detect(rows, kBits);
    EXPECT_TRUE(overlap_fe.cache().concurrent()); // overlap: locked
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
    pipe.shards = 8;
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
    pipe.shards = 4;
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

TEST(Sampling, StridedIndicesCoverTheWholeRange)
{
    // 1000 rows sampled 300 times: the truncating stride (3) never
    // got past row 897; round-to-nearest must reach the tail.
    int64_t prev = -1;
    for (int64_t i = 0; i < 300; ++i) {
        const int64_t idx = stridedSampleIndex(i, 1000, 300);
        EXPECT_GT(idx, prev); // strictly increasing
        EXPECT_LT(idx, 1000);
        prev = idx;
    }
    EXPECT_GE(prev, 990); // last pick lands in the tail
    // Exact divisors reproduce the legacy indices.
    for (int64_t i = 0; i < 512; ++i)
        EXPECT_EQ(stridedSampleIndex(i, 4096, 512), i * 8);
}

TEST(Sampling, DetectSampledSeesTheTail)
{
    // Head: one hot prototype; tail: 100 i.i.d. random rows. The old
    // truncating stride sampled the head only and extrapolated ~all
    // hits; covering the tail recovers the real unique count.
    Rng rng(17);
    Tensor rows({1000, 16});
    std::vector<float> proto(16);
    for (auto &v : proto)
        v = static_cast<float>(rng.normal());
    for (int64_t i = 0; i < 900; ++i)
        for (int64_t j = 0; j < 16; ++j)
            rows.at2(i, j) = proto[static_cast<size_t>(j)];
    for (int64_t i = 900; i < 1000; ++i)
        for (int64_t j = 0; j < 16; ++j)
            rows.at2(i, j) = static_cast<float>(rng.normal());

    RPQEngine rpq(16, kMaxBits, 18);
    MCache full_cache(kSets, kWays, 1), samp_cache(kSets, kWays, 1);
    SimilarityDetector full(rpq, full_cache, 24);
    SimilarityDetector samp(rpq, samp_cache, 24);
    const HitMix f = full.detect(rows).mix();
    const HitMix s = samp.detectSampled(rows, 300);
    EXPECT_EQ(s.vectors, 1000);
    // ~101 uniques in the full pass; the truncating stride reported
    // ~3. Require the sampled estimate to land near the truth.
    EXPECT_GT(f.mau, 90);
    EXPECT_NEAR(static_cast<double>(s.mau), static_cast<double>(f.mau),
                0.25 * static_cast<double>(f.mau));

    // The pipeline frontend shares the same sampling path.
    PipelineConfig pipe;
    pipe.threads = 2;
    pipe.shards = 4;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, 18, pipe);
    const HitMix p = fe.detectSampled(rows, 24, 300);
    EXPECT_EQ(p.hit, s.hit);
    EXPECT_EQ(p.mau, s.mau);
    EXPECT_EQ(p.mnu, s.mnu);
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

    // A monolithic MCACHE with the context's default organization.
    MercuryContext legacy_ctx(16);
    MCache legacy_cache(64, 16, 4);
    FcEngine legacy(legacy_cache, 16, legacy_ctx.layerSeed(3));
    ReuseStats legacy_stats;
    const Tensor legacy_out = legacy.forward(input, w, legacy_stats);

    MercuryContext ctx(16);
    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.shards = 4;
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

TEST(Streaming, BlocksArriveInOrderAndResultsMatchScalarDetector)
{
    Tensor rows = prototypeVectors(500, 24, 64, 0.01f, 77, 1.2);
    PipelineConfig pipe;
    pipe.blockRows = 48; // 500 rows -> 11 blocks, last one ragged
    pipe.shards = 8;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);

    std::vector<int64_t> order;
    int64_t covered = 0;
    const SignatureRecord::Pass streamed = fe.detectStream(
        rows, kBits, [&](const DetectionBlock &blk) {
            order.push_back(blk.index);
            // Hand-off invariants: ascending, contiguous, probed.
            EXPECT_EQ(blk.row0, blk.index * pipe.blockRows);
            EXPECT_EQ(blk.row1,
                      std::min<int64_t>(rows.dim(0),
                                        blk.row0 + pipe.blockRows));
            EXPECT_EQ(blk.row0, covered);
            covered = blk.row1;
            for (int64_t r = blk.row0; r < blk.row1; ++r) {
                if (blk.outcome(r) != McacheOutcome::Mnu) {
                    EXPECT_GE(blk.entryId(r), 0);
                }
            }
        });
    ASSERT_EQ(order.size(), 11u);
    for (size_t b = 0; b < order.size(); ++b)
        EXPECT_EQ(order[b], static_cast<int64_t>(b))
            << "hand-off out of order";
    EXPECT_EQ(covered, rows.dim(0));

    // The streamed pass must be bit-identical to the legacy scalar
    // path.
    expectMatchesLegacy(streamed, legacyDetect(rows));
}

TEST(Streaming, InlineFallbackStreamsWithoutAPool)
{
    Tensor rows = prototypeVectors(130, 16, 20, 0.01f, 3, 1.0);
    PipelineConfig pipe;
    pipe.blockRows = 32;
    pipe.threads = 1; // no pool: hash, probe, deliver inline per block
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    int64_t blocks = 0;
    const SignatureRecord::Pass streamed = fe.detectStream(
        rows, kBits, [&](const DetectionBlock &blk) {
            EXPECT_EQ(blk.index, blocks);
            ++blocks;
        });
    EXPECT_EQ(blocks, 5);
    expectMatchesLegacy(streamed, legacyDetect(rows));
}

/** Engine outputs with overlap on vs off, all three engine types. */
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
    serial_pipe.shards = 8;
    serial_pipe.threads = 4;
    DetectionFrontend serial_fe(kSets, kWays, 2, 16, kSeed, serial_pipe);
    ConvReuseEngine serial(serial_fe, 16);
    ReuseStats serial_stats;
    const Tensor serial_out =
        serial.forward(ds.inputs, w, Tensor(), spec, serial_stats);

    PipelineConfig pipe = serial_pipe;
    pipe.overlap = OverlapMode::On;
    DetectionFrontend fe(kSets, kWays, 2, 16, kSeed, pipe);
    ConvReuseEngine overlapped(fe, 16);
    ReuseStats stats;
    const Tensor out =
        overlapped.forward(ds.inputs, w, Tensor(), spec, stats);

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
    pipe.shards = 4;
    pipe.threads = 3;
    pipe.overlap = OverlapMode::On;
    DetectionFrontend fe(kSets, kWays, 1, 24, kSeed, pipe);
    FcEngine overlapped(fe, 24);
    ReuseStats stats;
    std::vector<int64_t> owners;
    const Tensor out = overlapped.forward(input, w, stats, &owners);

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
    pipe.shards = 4;
    pipe.threads = 4;
    pipe.overlap = OverlapMode::On;
    DetectionFrontend fe(kSets, kWays, 1, 20, kSeed, pipe);
    AttentionEngine overlapped(fe, 20);
    ReuseStats stats;
    const Tensor out = overlapped.forward(x, stats);

    EXPECT_TRUE(out == legacy_out);
    EXPECT_EQ(stats.macsSkipped, legacy_stats.macsSkipped);
    EXPECT_EQ(stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(stats.mix.mau, legacy_stats.mix.mau);
}

TEST(Overlap, KnobLiftsFromAcceleratorConfig)
{
    AcceleratorConfig cfg;
    EXPECT_EQ(PipelineConfig::fromConfig(cfg).overlap, OverlapMode::Off);
    cfg.overlapDetection = OverlapMode::On;
    cfg.pipelineThreads = 4;
    EXPECT_EQ(PipelineConfig::fromConfig(cfg).overlap, OverlapMode::On);

    // A pass runs overlapped only with both the knob and a pool:
    // threads = 1 resolves to inline execution.
    PipelineConfig inline_pipe = PipelineConfig::fromConfig(cfg);
    inline_pipe.threads = 1;
    DetectionFrontend inline_fe(kSets, kWays, 1, kMaxBits, kSeed,
                                inline_pipe);
    EXPECT_FALSE(inline_fe.overlapEnabledFor(64));
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed,
                         PipelineConfig::fromConfig(cfg));
    EXPECT_TRUE(fe.overlapEnabledFor(64));
}

/**
 * ShardedMCache locking stress: several probers insert tags into the
 * same shards at once. Run under TSan in CI, this checks the
 * per-shard locking contract; every probe must land in the merged
 * mix exactly once.
 */
TEST(ShardedMCache, ConcurrentProbesIntoSharedShards)
{
    ShardedMCache cache(32, 4, 4, 8);
    RPQEngine rpq(16, kMaxBits, 5);
    Rng rng(41);
    Tensor rows({512, 16});
    rows.fillNormal(rng);
    std::vector<Signature> sigs;
    for (int64_t i = 0; i < rows.dim(0); ++i)
        sigs.push_back(rpq.signatureOfRow(rows, i, 24));

    constexpr int kProbers = 4;
    ThreadPool pool(3);
    TaskGroup group(&pool);
    for (int p = 0; p < kProbers; ++p) {
        group.run([&, p] {
            for (size_t i = static_cast<size_t>(p); i < sigs.size();
                 i += kProbers)
                cache.lookupOrInsert(sigs[i]);
        });
    }
    group.wait();
    const HitMix mix = cache.lookupMix();
    EXPECT_TRUE(mix.consistent());
    EXPECT_EQ(mix.vectors, rows.dim(0));
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
    cfg.pipelineShards = 16;
    cfg.pipelineThreads = 0;
    const PipelineConfig pipe = PipelineConfig::fromConfig(cfg);
    EXPECT_EQ(pipe.blockRows, 128);
    EXPECT_EQ(pipe.shards, 16);
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

TEST(Pipeline, ResolvedShardsTracksThreadBand)
{
    // Explicit values pass through untouched.
    PipelineConfig pipe;
    pipe.shards = 7;
    EXPECT_EQ(pipe.resolvedShards(), 7);

    // 0 = auto: the tunedPipelineFor band for the resolved thread
    // count — the measured floor of 4 up to serial, scaling with the
    // probing threads, clamped at 16.
    pipe.shards = 0;
    pipe.threads = 1;
    EXPECT_EQ(pipe.resolvedShards(), 4);
    pipe.threads = 8;
    EXPECT_EQ(pipe.resolvedShards(), 8);
    pipe.threads = 64;
    EXPECT_EQ(pipe.resolvedShards(), 16);
}

TEST(Pipeline, AutoShardsFrontendMatchesExplicitShards)
{
    // Detection results are bit-identical across shard counts, so the
    // auto band must change nothing observable.
    Tensor rows = prototypeVectors(96, 10, 9, 0.01f, 11);
    PipelineConfig auto_pipe;
    auto_pipe.shards = 0;
    auto_pipe.threads = 8;
    DetectionFrontend auto_fe(32, 8, 2, kMaxBits, 13, auto_pipe);
    PipelineConfig fixed_pipe;
    fixed_pipe.shards = 8;
    fixed_pipe.threads = 8;
    DetectionFrontend fixed_fe(32, 8, 2, kMaxBits, 13, fixed_pipe);
    expectIdenticalPasses(auto_fe.detect(rows, 20),
                          fixed_fe.detect(rows, 20));
}

} // namespace
} // namespace mercury
