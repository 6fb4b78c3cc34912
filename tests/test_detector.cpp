/**
 * @file
 * Tests for the similarity detector, hitmap, and signature table:
 * outcome ordering (owners precede their hits), mixes, and
 * the forward-to-backward signature save path.
 */

#include <gtest/gtest.h>

#include "core/similarity_detector.hpp"
#include "util/rng.hpp"

namespace mercury {
namespace {

/** Rows drawn from `uniques` prototypes plus epsilon noise. */
Tensor
prototypeRows(int64_t n, int64_t d, int uniques, float eps, uint64_t seed)
{
    Rng rng(seed);
    Tensor protos({uniques, d});
    protos.fillNormal(rng);
    Tensor rows({n, d});
    for (int64_t i = 0; i < n; ++i) {
        const int64_t p = static_cast<int64_t>(
            rng.uniformInt(static_cast<uint64_t>(uniques)));
        for (int64_t j = 0; j < d; ++j)
            rows.at2(i, j) =
                protos.at2(p, j) +
                eps * static_cast<float>(rng.normal());
    }
    return rows;
}

TEST(Hitmap, RecordsAndCounts)
{
    Hitmap h(3);
    h.record(0, {McacheOutcome::Mau, 7});
    h.record(1, {McacheOutcome::Hit, 7});
    h.record(2, {McacheOutcome::Mnu, -1});
    EXPECT_EQ(h.outcome(0), McacheOutcome::Mau);
    EXPECT_TRUE(h.isHit(1));
    EXPECT_EQ(h.entryId(1), 7);
    const HitMix m = h.mix();
    EXPECT_EQ(m.vectors, 3);
    EXPECT_EQ(m.hit, 1);
    EXPECT_EQ(m.mau, 1);
    EXPECT_EQ(m.mnu, 1);
    EXPECT_TRUE(m.consistent());
}

TEST(Hitmap, OutOfRangeDies)
{
    Hitmap h(2);
    EXPECT_DEATH(h.outcome(2), "out of range");
}

TEST(SignatureTable, StoresInOrder)
{
    SignatureTable t;
    Signature a(8), b(8);
    b.setBit(2, true);
    t.append(a, 0);
    t.append(b, 5);
    EXPECT_EQ(t.size(), 2);
    EXPECT_TRUE(t.signature(1) == b);
    EXPECT_EQ(t.entryId(1), 5);
    t.clear();
    EXPECT_EQ(t.size(), 0);
}

TEST(SignatureTable, StorageBytes)
{
    SignatureTable t;
    t.append(Signature(20), 0); // 3 bytes sig + 4 bytes id
    t.append(Signature(20), 1);
    EXPECT_EQ(t.storageBytes(), 14u);
}

TEST(Detector, IdenticalRowsProduceOneMauRestHits)
{
    MCache cache(16, 4, 1);
    RPQEngine rpq(8, 32, 42);
    SimilarityDetector det(rpq, cache, 20);
    Tensor rows({10, 8});
    Rng rng(1);
    // All rows identical.
    std::vector<float> proto(8);
    for (auto &x : proto)
        x = static_cast<float>(rng.normal());
    for (int64_t i = 0; i < 10; ++i)
        for (int64_t j = 0; j < 8; ++j)
            rows.at2(i, j) = proto[static_cast<size_t>(j)];

    const DetectionResult res = det.detect(rows);
    const HitMix m = res.mix();
    EXPECT_EQ(m.mau, 1);
    EXPECT_EQ(m.hit, 9);
    EXPECT_EQ(m.mnu, 0);
    EXPECT_EQ(res.uniqueVectors(), 1);
}

TEST(Detector, OwnerAlwaysPrecedesItsHits)
{
    MCache cache(16, 4, 1);
    RPQEngine rpq(8, 32, 43);
    SimilarityDetector det(rpq, cache, 16);
    Tensor rows = prototypeRows(64, 8, 4, 1e-4f, 2);
    const DetectionResult res = det.detect(rows);

    std::vector<bool> entry_seen(
        static_cast<size_t>(cache.entries()), false);
    for (int64_t i = 0; i < 64; ++i) {
        const auto outc = res.hitmap.outcome(i);
        const int64_t id = res.hitmap.entryId(i);
        if (outc == McacheOutcome::Mau) {
            entry_seen[static_cast<size_t>(id)] = true;
        }
        if (outc == McacheOutcome::Hit) {
            EXPECT_TRUE(entry_seen[static_cast<size_t>(id)])
                << "hit at " << i << " before its owner";
        }
    }
}

TEST(Detector, DissimilarRowsMostlyMau)
{
    MCache cache(64, 16, 1);
    RPQEngine rpq(16, 32, 44);
    SimilarityDetector det(rpq, cache, 24);
    Rng rng(3);
    Tensor rows({100, 16});
    rows.fillNormal(rng);
    const HitMix m = det.detect(rows).mix();
    EXPECT_LT(m.hitFraction(), 0.1);
}

TEST(Detector, PrototypeRowsHitHeavily)
{
    MCache cache(64, 16, 1);
    RPQEngine rpq(16, 32, 45);
    SimilarityDetector det(rpq, cache, 20);
    Tensor rows = prototypeRows(512, 16, 8, 1e-4f, 4);
    const HitMix m = det.detect(rows).mix();
    // 8 prototypes across 512 rows: almost everything should hit.
    EXPECT_GT(m.hitFraction(), 0.85);
    EXPECT_LE(m.mau, 8 + 8); // prototypes, modulo rare RPQ splits
}

TEST(Detector, LongerSignaturesNeverHitMore)
{
    Tensor rows = prototypeRows(256, 16, 8, 0.05f, 5);
    RPQEngine rpq(16, 64, 46);
    int64_t prev_hits = INT64_MAX;
    for (int bits : {8, 16, 32, 64}) {
        MCache cache(64, 16, 1);
        SimilarityDetector det(rpq, cache, bits);
        const HitMix m = det.detect(rows).mix();
        EXPECT_LE(m.hit, prev_hits) << bits << " bits";
        prev_hits = m.hit;
    }
}

TEST(Detector, SignatureTableMatchesHitmap)
{
    MCache cache(16, 4, 1);
    RPQEngine rpq(8, 32, 47);
    SimilarityDetector det(rpq, cache, 16);
    Tensor rows = prototypeRows(32, 8, 4, 1e-3f, 6);
    const DetectionResult res = det.detect(rows);
    ASSERT_EQ(res.table.size(), 32);
    for (int64_t i = 0; i < 32; ++i)
        EXPECT_EQ(res.table.entryId(i), res.hitmap.entryId(i));
}

TEST(Detector, CacheClearedBetweenPasses)
{
    MCache cache(16, 4, 1);
    RPQEngine rpq(8, 32, 48);
    SimilarityDetector det(rpq, cache, 16);
    Tensor rows = prototypeRows(16, 8, 2, 1e-4f, 7);
    const HitMix a = det.detect(rows).mix();
    const HitMix b = det.detect(rows).mix();
    // Identical passes: the second must not see stale entries.
    EXPECT_EQ(a.hit, b.hit);
    EXPECT_EQ(a.mau, b.mau);
}

TEST(Detector, SmallSetPressureProducesMnu)
{
    MCache cache(1, 2, 1); // two entries total
    RPQEngine rpq(8, 32, 49);
    SimilarityDetector det(rpq, cache, 24);
    Rng rng(8);
    Tensor rows({64, 8});
    rows.fillNormal(rng); // ~64 distinct signatures
    const HitMix m = det.detect(rows).mix();
    EXPECT_GT(m.mnu, 0);
    EXPECT_LE(m.mau, 2);
}

TEST(Detector, WrongDimensionDies)
{
    MCache cache(16, 4, 1);
    RPQEngine rpq(8, 32, 52);
    SimilarityDetector det(rpq, cache, 16);
    Tensor rows({4, 9});
    EXPECT_DEATH(det.detect(rows), "expects");
}

TEST(Detector, BitsOutsideEngineDies)
{
    MCache cache(16, 4, 1);
    RPQEngine rpq(8, 16, 53);
    EXPECT_DEATH(SimilarityDetector(rpq, cache, 17), "range");
}

} // namespace
} // namespace mercury
