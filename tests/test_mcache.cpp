/**
 * @file
 * Tests for MCACHE semantics: the Fig. 9 insert flow, the
 * no-replacement policy, the per-set insert queues, the outcome
 * counters, and the serving-layer lifecycle (epochs, tenants, pins,
 * quota, restore).
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/mcache.hpp"
#include "pipeline/sharded_mcache.hpp"

namespace mercury {
namespace {

Signature
sigOf(uint64_t pattern, int bits = 20)
{
    Signature s(bits);
    for (int i = 0; i < bits && i < 64; ++i)
        s.setBit(i, (pattern >> i) & 1);
    return s;
}

TEST(MCache, FirstLookupIsMau)
{
    MCache c(16, 4, 2);
    const auto r = c.lookupOrInsert(sigOf(0xABC));
    EXPECT_EQ(r.outcome, McacheOutcome::Mau);
    EXPECT_GE(r.entryId, 0);
}

TEST(MCache, SecondLookupIsHitWithSameId)
{
    MCache c(16, 4, 2);
    const auto first = c.lookupOrInsert(sigOf(0xABC));
    const auto second = c.lookupOrInsert(sigOf(0xABC));
    EXPECT_EQ(second.outcome, McacheOutcome::Hit);
    EXPECT_EQ(second.entryId, first.entryId);
}

TEST(MCache, DistinctSignaturesGetDistinctEntries)
{
    MCache c(16, 4, 2);
    const auto a = c.lookupOrInsert(sigOf(1));
    const auto b = c.lookupOrInsert(sigOf(2));
    EXPECT_NE(a.entryId, b.entryId);
}

TEST(MCache, FullSetYieldsMnuNoReplacement)
{
    // Single set, 2 ways: the third distinct signature is MNU and the
    // first two remain cached (no replacement, §III-B3).
    MCache c(1, 2, 1);
    const auto a = c.lookupOrInsert(sigOf(1));
    const auto b = c.lookupOrInsert(sigOf(2));
    const auto d = c.lookupOrInsert(sigOf(3));
    EXPECT_EQ(a.outcome, McacheOutcome::Mau);
    EXPECT_EQ(b.outcome, McacheOutcome::Mau);
    EXPECT_EQ(d.outcome, McacheOutcome::Mnu);
    EXPECT_EQ(d.entryId, -1);
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Hit);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Hit);
    EXPECT_EQ(c.lookupOrInsert(sigOf(3)).outcome, McacheOutcome::Mnu);
}

TEST(MCache, ClearDropsTags)
{
    MCache c(4, 2, 2);
    c.lookupOrInsert(sigOf(5));
    c.clear();
    EXPECT_EQ(c.lookupOrInsert(sigOf(5)).outcome, McacheOutcome::Mau);
}

TEST(MCache, SetOccupancyTracksInserts)
{
    MCache c(1, 4, 1);
    EXPECT_EQ(c.setOccupancy(0), 0);
    c.lookupOrInsert(sigOf(1));
    c.lookupOrInsert(sigOf(2));
    EXPECT_EQ(c.setOccupancy(0), 2);
    c.lookupOrInsert(sigOf(1)); // hit does not occupy a new way
    EXPECT_EQ(c.setOccupancy(0), 2);
}

TEST(MCache, InsertBacklogGrowsPerSet)
{
    MCache c(1, 8, 1);
    for (uint64_t i = 0; i < 5; ++i)
        c.lookupOrInsert(sigOf(i + 1));
    EXPECT_EQ(c.maxInsertBacklog(), 5u);
    c.clear();
    EXPECT_EQ(c.maxInsertBacklog(), 0u);
}

TEST(MCache, StatsCountOutcomes)
{
    MCache c(16, 4, 1);
    c.lookupOrInsert(sigOf(1));
    c.lookupOrInsert(sigOf(1));
    c.lookupOrInsert(sigOf(2));
    EXPECT_EQ(c.stats().hits, 1);
    EXPECT_EQ(c.stats().mau, 2);
    EXPECT_EQ(c.stats().mnu, 0);
}

TEST(MCache, CountersCountMnuAndSurviveClear)
{
    // One line: a second distinct signature finds the set full (MNU).
    // clear() drops the tags but keeps the lifetime counts.
    MCache c(1, 1, 1);
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mnu);
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Hit);
    c.clear();
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.stats().hits, 1);
    EXPECT_EQ(c.stats().mau, 2);
    EXPECT_EQ(c.stats().mnu, 1);
}

TEST(MCache, EntriesMatchOrganization)
{
    MCache c(64, 16, 4);
    EXPECT_EQ(c.entries(), 1024);
    EXPECT_EQ(c.dataVersions(), 4);
}

TEST(MCache, SetIndexDeterministic)
{
    MCache c(64, 16, 1);
    EXPECT_EQ(c.setIndexOf(sigOf(77)), c.setIndexOf(sigOf(77)));
}

TEST(MCache, InvalidOrganizationDies)
{
    EXPECT_DEATH(MCache(0, 4, 1), "positive");
}

class McacheOrgTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(McacheOrgTest, CapacityBoundsUniqueInsertions)
{
    const auto [sets, ways] = GetParam();
    MCache c(sets, ways, 1);
    int mau = 0, mnu = 0;
    // Insert many more distinct signatures than entries.
    const int n = sets * ways * 3;
    for (int i = 0; i < n; ++i) {
        const auto r = c.lookupOrInsert(sigOf(
            static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1, 40));
        mau += r.outcome == McacheOutcome::Mau;
        mnu += r.outcome == McacheOutcome::Mnu;
    }
    EXPECT_LE(mau, sets * ways);
    EXPECT_EQ(mau + mnu, n);
    // With 3x pressure most sets should fill.
    EXPECT_GT(mau, sets * ways / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, McacheOrgTest,
    ::testing::Values(std::make_tuple(16, 2), std::make_tuple(32, 8),
                      std::make_tuple(64, 16), std::make_tuple(128, 8)));

// ---- Serving-layer lifecycle: epochs, eviction, quota, pins ---------

TEST(McacheLifecycle, InsertStampsEpochAndTenant)
{
    MCache c(16, 4, 1);
    c.setEpoch(7);
    c.setInsertTenant(3);
    const auto r = c.lookupOrInsert(sigOf(0xABC));
    ASSERT_EQ(r.outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.entryEpoch(r.entryId), 7u);
    EXPECT_EQ(c.entryTenant(r.entryId), 3);
    EXPECT_EQ(c.tenantEntries(3), 1);
}

TEST(McacheLifecycle, HitRefreshesEpoch)
{
    MCache c(16, 4, 1);
    c.setEpoch(1);
    const auto r = c.lookupOrInsert(sigOf(0xABC));
    c.setEpoch(9);
    const auto again = c.lookupOrInsert(sigOf(0xABC));
    ASSERT_EQ(again.outcome, McacheOutcome::Hit);
    EXPECT_EQ(c.entryEpoch(r.entryId), 9u);
}

TEST(McacheLifecycle, EvictOlderThanAgesOldestFirst)
{
    // Three lines touched at epochs 1, 2, 3; raising the eviction
    // floor removes strictly the lines below it, oldest first.
    MCache c(16, 8, 1);
    c.setEpoch(1);
    const auto a = c.lookupOrInsert(sigOf(1));
    c.setEpoch(2);
    const auto b = c.lookupOrInsert(sigOf(2));
    c.setEpoch(3);
    const auto d = c.lookupOrInsert(sigOf(3));
    EXPECT_EQ(c.evictOlderThan(2), 1); // only epoch-1 goes
    EXPECT_FALSE(c.tagValid(a.entryId));
    EXPECT_TRUE(c.tagValid(b.entryId));
    EXPECT_TRUE(c.tagValid(d.entryId));
    EXPECT_EQ(c.evictOlderThan(4), 2); // the rest
    EXPECT_FALSE(c.tagValid(b.entryId));
    EXPECT_FALSE(c.tagValid(d.entryId));
}

TEST(McacheLifecycle, HitRefreshSavesLineFromEviction)
{
    MCache c(16, 8, 1);
    c.setEpoch(1);
    const auto a = c.lookupOrInsert(sigOf(1));
    (void)c.lookupOrInsert(sigOf(2));
    c.setEpoch(5);
    (void)c.lookupOrInsert(sigOf(1)); // HIT refreshes to epoch 5
    EXPECT_EQ(c.evictOlderThan(5), 1); // sigOf(2) only
    EXPECT_TRUE(c.tagValid(a.entryId));
}

TEST(McacheLifecycle, EvictionFreesTheWayForReinsert)
{
    MCache c(1, 1, 1);
    c.setEpoch(1);
    (void)c.lookupOrInsert(sigOf(1));
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mnu);
    c.setEpoch(2);
    EXPECT_EQ(c.evictOlderThan(2), 1);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
}

TEST(McacheLifecycle, EvictTenantRemovesOnlyThatTenant)
{
    MCache c(16, 8, 1);
    c.setInsertTenant(0);
    const auto a = c.lookupOrInsert(sigOf(1));
    c.setInsertTenant(1);
    const auto b = c.lookupOrInsert(sigOf(2));
    EXPECT_EQ(c.evictTenant(0), 1);
    EXPECT_FALSE(c.tagValid(a.entryId));
    EXPECT_TRUE(c.tagValid(b.entryId));
    EXPECT_EQ(c.tenantEntries(1), 1);
}

TEST(McacheLifecycle, PinnedLineSurvivesEviction)
{
    // The in-flight-HIT contract: a pinned line is never evicted, so
    // an entry id handed out by a probe stays valid across any
    // eviction sweep that runs while the client holds the pin.
    MCache c(16, 8, 1);
    c.setEpoch(1);
    const auto a = c.lookupOrInsert(sigOf(1));
    c.pin(a.entryId);
    c.setEpoch(10);
    EXPECT_EQ(c.evictOlderThan(10), 0);
    EXPECT_TRUE(c.tagValid(a.entryId));
    EXPECT_EQ(c.pinCount(a.entryId), 1u);
    c.unpin(a.entryId);
    EXPECT_EQ(c.evictOlderThan(10), 1); // unpinned: now evictable
}

TEST(McacheLifecycle, PinIsCountedNotBoolean)
{
    MCache c(16, 8, 1);
    const auto a = c.lookupOrInsert(sigOf(1));
    c.pin(a.entryId);
    c.pin(a.entryId);
    c.unpin(a.entryId);
    c.setEpoch(10);
    EXPECT_EQ(c.evictOlderThan(10), 0); // one pin still held
    c.unpin(a.entryId);
    EXPECT_EQ(c.evictOlderThan(10), 1);
}

TEST(McacheLifecycle, UnpinWithoutPinPanics)
{
    MCache c(16, 8, 1);
    const auto a = c.lookupOrInsert(sigOf(1));
    EXPECT_DEATH(c.unpin(a.entryId), "unpin");
}

TEST(McacheLifecycle, RestoreLineReinstallsTagAndMetadata)
{
    MCache c(16, 4, 2);
    const auto orig = c.lookupOrInsert(sigOf(0xF00D));
    const Signature tag = c.tagOf(orig.entryId);
    c.clear();
    c.restoreLine(orig.entryId, tag, 42, 5);
    // Same tag in the same way: the probe HITs with the original id.
    const auto again = c.lookupOrInsert(sigOf(0xF00D));
    EXPECT_EQ(again.outcome, McacheOutcome::Hit);
    EXPECT_EQ(again.entryId, orig.entryId);
    EXPECT_EQ(c.entryTenant(orig.entryId), 5);
}

TEST(McacheLifecycle, RestoreIntoOccupiedLinePanics)
{
    MCache c(16, 4, 1);
    const auto a = c.lookupOrInsert(sigOf(1));
    EXPECT_DEATH(c.restoreLine(a.entryId, sigOf(2), 0, -1),
                 "occupied");
}

namespace {

/** Quota gate that admits `limit` reservations per tenant (serial). */
class CountingGate : public McacheQuotaGate
{
  public:
    explicit CountingGate(int64_t limit) : limit_(limit) {}
    bool tryReserve(int tenant) override
    {
        if (tenant < 0)
            return true;
        if (counts_[tenant] >= limit_)
            return false;
        ++counts_[tenant];
        return true;
    }
    void release(int tenant) override
    {
        if (tenant >= 0)
            --counts_[tenant];
    }
    int64_t count(int tenant) const
    {
        const auto it = counts_.find(tenant);
        return it == counts_.end() ? 0 : it->second;
    }

  private:
    int64_t limit_;
    std::map<int, int64_t> counts_;
};

} // namespace

TEST(McacheLifecycle, QuotaGateTurnsInsertsIntoMnu)
{
    MCache c(64, 8, 1);
    CountingGate gate(2);
    c.setQuotaGate(&gate);
    c.setInsertTenant(0);
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
    // Third insert: plenty of free ways, but the quota says MNU.
    EXPECT_EQ(c.lookupOrInsert(sigOf(3)).outcome, McacheOutcome::Mnu);
    // HITs are not inserts and stay unaffected.
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Hit);
}

TEST(ShardedLifecycle, QuotaNeverExceededUnderConcurrentInserts)
{
    // Hammer one quota'd shared cache from several threads inserting
    // for the same tenant (the insert-tenant stamp is cache-global,
    // so concurrency happens within one tenant — exactly how the
    // server's intra-pass worker threads hit the gate). The
    // reserve-then-check gate must keep the tenant at or below quota
    // at every instant, regardless of interleaving.
    constexpr int kTenant = 2;
    constexpr int64_t kQuota = 24;
    ShardedMCache cache(/*sets=*/256, /*ways=*/8, /*data_versions=*/1,
                        /*shards=*/4);
    cache.setTenantQuota(kQuota, /*max_tenants=*/4);
    cache.setInsertTenant(kTenant);

    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
        threads.emplace_back([&cache, w, kTenant, kQuota] {
            for (int i = 0; i < 400; ++i) {
                const uint64_t pattern =
                    (static_cast<uint64_t>(w) << 32) ^
                    (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull);
                (void)cache.lookupOrInsert(sigOf(pattern, 44));
                EXPECT_LE(cache.tenantReserved(kTenant), kQuota);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    // The reservation count and the actual valid-line count agree,
    // and both respect the quota.
    EXPECT_EQ(cache.tenantReserved(kTenant), kQuota);
    int64_t held = 0;
    for (int s = 0; s < cache.shardCount(); ++s)
        held += cache.shard(s).tenantEntries(kTenant);
    EXPECT_EQ(held, kQuota);
}

TEST(ShardedLifecycle, QuotaIsPerTenantAndFreedByEviction)
{
    // The shared cache's own gate, serially: a tenant at quota gets
    // MNU and its count stays at the quota, another tenant keeps its
    // own budget, unowned inserts are never gated, and evicting a
    // tenant's lines hands its budget back.
    ShardedMCache cache(/*sets=*/64, /*ways=*/8, /*data_versions=*/1,
                        /*shards=*/4);
    cache.setTenantQuota(2, /*max_tenants=*/4);

    cache.setInsertTenant(1);
    EXPECT_EQ(cache.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(cache.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(cache.lookupOrInsert(sigOf(3)).outcome, McacheOutcome::Mnu);
    EXPECT_EQ(cache.tenantReserved(1), 2);

    cache.setInsertTenant(3);
    EXPECT_EQ(cache.lookupOrInsert(sigOf(3)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(cache.tenantReserved(3), 1);
    EXPECT_EQ(cache.tenantReserved(1), 2);

    cache.setInsertTenant(-1);
    for (uint64_t p = 10; p < 16; ++p)
        EXPECT_EQ(cache.lookupOrInsert(sigOf(p)).outcome,
                  McacheOutcome::Mau);

    EXPECT_EQ(cache.evictTenant(1), 2);
    EXPECT_EQ(cache.tenantReserved(1), 0);
    cache.setInsertTenant(1);
    EXPECT_EQ(cache.lookupOrInsert(sigOf(4)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(cache.tenantReserved(1), 1);
}

TEST(McacheLifecycle, EvictionReleasesQuota)
{
    MCache c(64, 8, 1);
    CountingGate gate(1);
    c.setQuotaGate(&gate);
    c.setInsertTenant(0);
    c.setEpoch(1);
    const auto a = c.lookupOrInsert(sigOf(1));
    ASSERT_EQ(a.outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mnu);
    c.setEpoch(2);
    EXPECT_EQ(c.evictOlderThan(2), 1);
    EXPECT_EQ(gate.count(0), 0);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
}

TEST(McacheClear, EqualsAFreshCacheAfterAnyHistory)
{
    // clear() resets only the lines installed since the last clear. It
    // must leave every observable as a freshly built cache has it,
    // after seeded histories of probes, pins, unpins, evictions,
    // restores, backlog resets, quota-gated inserts and earlier
    // clears — including histories with more installs than entries().
    constexpr int kSets = 8, kWays = 4, kTenants = 3;
    std::mt19937_64 rng(0xC1EA2);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        MCache c(kSets, kWays, 2);
        CountingGate gate(5);
        const bool gated = trial % 2 == 1;
        if (gated)
            c.setQuotaGate(&gate);
        const int steps = static_cast<int>(rng() % 240);
        for (int s = 0; s < steps; ++s) {
            const int64_t e = static_cast<int64_t>(rng() % c.entries());
            const int tenant = static_cast<int>(rng() % (kTenants + 1)) - 1;
            switch (rng() % 10) {
              case 0:
              case 1:
              case 2:
              case 3:
                c.setInsertTenant(tenant);
                c.setEpoch(rng() % 6);
                (void)c.lookupOrInsert(sigOf(rng() % 48));
                break;
              case 4:
                if (c.tagValid(e))
                    c.pin(e);
                break;
              case 5:
                if (c.pinCount(e) > 0)
                    c.unpin(e);
                break;
              case 6:
                (void)c.evictOlderThan(rng() % 6);
                break;
              case 7:
                (void)c.evictTenant(tenant);
                break;
              case 8:
                // A restore bypasses the gate; the owner recounts its
                // reservation, as ShardedMCache does after a restore.
                if (!c.tagValid(e) &&
                    (!gated || gate.tryReserve(tenant)))
                    c.restoreLine(e, sigOf(1000 + rng() % 64), rng() % 6,
                                  tenant);
                break;
              default:
                if (rng() % 4 == 0)
                    c.clear();
                else
                    c.resetInsertBacklog();
                break;
            }
        }
        c.clear();

        const MCache fresh(kSets, kWays, 2);
        for (int64_t id = 0; id < c.entries(); ++id) {
            ASSERT_EQ(c.tagValid(id), fresh.tagValid(id)) << "entry " << id;
            ASSERT_EQ(c.entryEpoch(id), fresh.entryEpoch(id)) << id;
            ASSERT_EQ(c.entryTenant(id), fresh.entryTenant(id)) << id;
            ASSERT_EQ(c.pinCount(id), fresh.pinCount(id)) << id;
        }
        for (int set = 0; set < kSets; ++set)
            ASSERT_EQ(c.setOccupancy(set), fresh.setOccupancy(set));
        for (int t = -1; t < kTenants; ++t) {
            ASSERT_EQ(c.tenantEntries(t), fresh.tenantEntries(t));
            ASSERT_EQ(gate.count(t), 0) << "tenant " << t;
        }
        ASSERT_EQ(c.maxInsertBacklog(), fresh.maxInsertBacklog());
    }
}

} // namespace
} // namespace mercury
