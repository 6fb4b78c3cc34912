/**
 * @file
 * Tests for MCACHE semantics: the Fig. 9 insert flow, the
 * no-replacement policy, the per-set insert queues, the outcome
 * counters, the serving-layer lifecycle (epochs, tenants, pins,
 * quota, restore), and the block probe with the owner rule against a
 * plain restatement of the Fig. 9 rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/mcache.hpp"

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
    const Signature s = sigOf(77);
    EXPECT_EQ(c.setIndexOf(s.bits(), s.words()),
              c.setIndexOf(s.bits(), s.words()));
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

TEST(McacheLifecycle, QuotaGateTurnsInsertsIntoMnu)
{
    MCache c(64, 8, 1);
    c.setTenantQuota(2, /*max_tenants=*/4);
    c.setInsertTenant(0);
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
    // Third insert: plenty of free ways, but the quota says MNU.
    EXPECT_EQ(c.lookupOrInsert(sigOf(3)).outcome, McacheOutcome::Mnu);
    EXPECT_EQ(c.tenantReserved(0), 2);
    // HITs are not inserts and stay unaffected.
    EXPECT_EQ(c.lookupOrInsert(sigOf(1)).outcome, McacheOutcome::Hit);
}

TEST(McacheLifecycle, QuotaNeverExceededUnderManyInserts)
{
    // Four request streams interleaved row by row, as the server's
    // one prober sees them: two quota'd tenants and an unowned stream.
    // Every tenant stays at or below quota after every probe, fills
    // it exactly, and its count equals the lines it holds.
    constexpr int64_t kQuota = 24;
    MCache cache(/*sets=*/256, /*ways=*/8, /*data_versions=*/1);
    cache.setTenantQuota(kQuota, /*max_tenants=*/4);
    const int tenant_of[4] = {2, 2, 3, -1};
    int64_t unowned_mau = 0;
    for (int i = 0; i < 400; ++i) {
        for (int w = 0; w < 4; ++w) {
            const uint64_t pattern =
                (static_cast<uint64_t>(w) << 32) ^
                (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull);
            cache.setInsertTenant(tenant_of[w]);
            const McacheOutcome o =
                cache.lookupOrInsert(sigOf(pattern, 44)).outcome;
            unowned_mau += tenant_of[w] < 0 && o == McacheOutcome::Mau;
            ASSERT_LE(cache.tenantReserved(2), kQuota) << "row " << i;
            ASSERT_LE(cache.tenantReserved(3), kQuota) << "row " << i;
        }
    }
    for (int t : {2, 3}) {
        EXPECT_EQ(cache.tenantReserved(t), kQuota) << "tenant " << t;
        EXPECT_EQ(cache.tenantEntries(t), kQuota) << "tenant " << t;
    }
    // Unowned inserts are never counted against any tenant.
    EXPECT_GT(unowned_mau, kQuota);
    EXPECT_EQ(cache.tenantReserved(0), 0);
    EXPECT_EQ(cache.tenantReserved(1), 0);
}

TEST(McacheLifecycle, QuotaIsPerTenantAndFreedByEviction)
{
    // A tenant at quota gets MNU and its count stays at the quota,
    // another tenant keeps its own budget, unowned inserts are never
    // counted, and evicting a tenant's lines hands its budget back.
    MCache cache(/*sets=*/64, /*ways=*/8, /*data_versions=*/1);
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
    c.setTenantQuota(1, /*max_tenants=*/4);
    c.setInsertTenant(0);
    c.setEpoch(1);
    const auto a = c.lookupOrInsert(sigOf(1));
    ASSERT_EQ(a.outcome, McacheOutcome::Mau);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mnu);
    c.setEpoch(2);
    EXPECT_EQ(c.evictOlderThan(2), 1);
    EXPECT_EQ(c.tenantReserved(0), 0);
    EXPECT_EQ(c.lookupOrInsert(sigOf(2)).outcome, McacheOutcome::Mau);
}

TEST(McacheClear, EqualsAFreshCacheAfterAnyHistory)
{
    // clear() resets only the lines installed since the last clear. It
    // must leave every observable as a freshly built cache has it,
    // after seeded histories of probes, pins, unpins, evictions,
    // restores, backlog resets, quota-limited inserts and earlier
    // clears — including histories with more installs than entries().
    constexpr int kSets = 8, kWays = 4, kTenants = 3, kQuota = 5;
    std::mt19937_64 rng(0xC1EA2);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        MCache c(kSets, kWays, 2);
        const bool gated = trial % 2 == 1;
        if (gated)
            c.setTenantQuota(kQuota, kTenants);
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
                // A restore counts against the quota; a snapshot
                // restore checks the quota takes its lines first.
                if (!c.tagValid(e) && (!gated || tenant < 0 ||
                                       c.tenantReserved(tenant) < kQuota))
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
        // The quota counts track the valid lines through the history.
        for (int t = 0; gated && t < kTenants; ++t)
            ASSERT_EQ(c.tenantReserved(t), c.tenantEntries(t))
                << "tenant " << t;
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
            ASSERT_EQ(c.tenantReserved(t), fresh.tenantReserved(t))
                << "tenant " << t;
        }
        ASSERT_EQ(c.maxInsertBacklog(), fresh.maxInsertBacklog());
    }
}

// ---- Differential test against the Fig. 9 rules --------------------

/**
 * MCACHE restated as the paper's Fig. 9 rules over plain lines: the
 * first valid way whose tag matches HITs (refreshing its epoch);
 * otherwise the first free way installs, unless the inserting tenant
 * already holds its quota; otherwise the result is MNU. Eviction,
 * pins, restore and clear as MCache documents them.
 */
class ReferenceCache
{
  public:
    ReferenceCache(int sets, int ways, int64_t quota, int tenants)
        : sets_(sets), ways_(ways), quota_(quota),
          lines_(static_cast<size_t>(sets * ways)),
          held_(static_cast<size_t>(tenants), 0)
    {
    }

    void setEpoch(uint64_t e) { epoch_ = e; }
    void setInsertTenant(int t) { tenant_ = t; }

    McacheResult probe(const Signature &sig)
    {
        const int set = static_cast<int>(
            Signature::hashWords(sig.bits(), sig.words()) %
            static_cast<uint64_t>(sets_));
        const int64_t base = static_cast<int64_t>(set) * ways_;
        for (int w = 0; w < ways_; ++w) {
            Line &l = line(base + w);
            if (l.valid && l.tag == sig) {
                l.epoch = epoch_;
                ++stats.hits;
                return {McacheOutcome::Hit, base + w};
            }
        }
        for (int w = 0; w < ways_; ++w) {
            Line &l = line(base + w);
            if (l.valid)
                continue;
            if (quotaFull(tenant_)) {
                ++stats.mnu;
                return {McacheOutcome::Mnu, -1};
            }
            take(l, sig, epoch_, tenant_);
            ++stats.mau;
            return {McacheOutcome::Mau, base + w};
        }
        ++stats.mnu;
        return {McacheOutcome::Mnu, -1};
    }

    bool quotaFull(int tenant) const
    {
        return quota_ > 0 && tenant >= 0 &&
               held_[static_cast<size_t>(tenant)] >= quota_;
    }

    void restore(int64_t e, const Signature &sig, uint64_t epoch,
                 int tenant)
    {
        take(line(e), sig, epoch, tenant);
    }

    int64_t evict(bool by_tenant, uint64_t min_epoch, int tenant)
    {
        int64_t n = 0;
        for (Line &l : lines_) {
            if (!l.valid || l.pins > 0 ||
                (by_tenant ? l.tenant != tenant : l.epoch >= min_epoch))
                continue;
            drop(l);
            ++n;
        }
        return n;
    }

    void clear()
    {
        for (Line &l : lines_) {
            if (l.valid)
                drop(l);
            l.pins = 0;
        }
    }

    struct Line
    {
        bool valid = false;
        Signature tag;
        uint64_t epoch = 0;
        int tenant = -1;
        uint32_t pins = 0;
    };

    Line &line(int64_t e) { return lines_[static_cast<size_t>(e)]; }
    int64_t held(int t) const { return held_[static_cast<size_t>(t)]; }

    int occupancy(int set) const
    {
        int n = 0;
        for (int w = 0; w < ways_; ++w)
            n += lines_[static_cast<size_t>(set * ways_ + w)].valid;
        return n;
    }

    McacheCounters stats;

  private:
    int sets_, ways_;
    int64_t quota_;
    uint64_t epoch_ = 0;
    int tenant_ = -1;
    std::vector<Line> lines_;
    std::vector<int64_t> held_;

    void take(Line &l, const Signature &sig, uint64_t epoch, int tenant)
    {
        l.valid = true;
        l.tag = sig;
        l.epoch = epoch;
        l.tenant = tenant;
        l.pins = 0;
        if (quota_ > 0 && tenant >= 0)
            ++held_[static_cast<size_t>(tenant)];
    }

    void drop(Line &l)
    {
        if (quota_ > 0 && l.tenant >= 0)
            --held_[static_cast<size_t>(l.tenant)];
        l.valid = false;
        l.epoch = 0;
        l.tenant = -1;
    }
};

/** A random signature of `bits` bits. */
Signature
randomSig(int bits, std::mt19937_64 &rng)
{
    std::vector<uint64_t> words(static_cast<size_t>(Signature::wordsFor(bits)));
    for (uint64_t &w : words)
        w = rng();
    return Signature::fromWords(bits, words.data());
}

TEST(McacheReference, MatchesFig9RulesOverMixedStreams)
{
    constexpr int kSets = 3, kTenants = 2;
    const int lengths[] = {1, 28, 64, 65, 130};
    for (const int ways : {1, 3, 16, 63, 64, 65, 130}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            const uint64_t run = seed * 1000 + static_cast<uint64_t>(ways);
            SCOPED_TRACE("seed " + std::to_string(run) + " ways " +
                         std::to_string(ways));
            std::mt19937_64 rng(run);
            // Every length, plus tag pairs whose first words agree:
            // 28 and 64 bits (the 64-bit tag's high bits zero), and 65
            // and 130 bits.
            // About 2 tags per line: sets overflow into MNU, and
            // repeats HIT.
            std::vector<Signature> pool;
            const int per_length = kSets * ways * 2 / 5 + 2;
            for (const int bits : lengths)
                for (int i = 0; i < per_length; ++i)
                    pool.push_back(randomSig(bits, rng));
            for (int i = 0; i < 4; ++i) {
                const uint64_t low = rng() & ((1ull << 28) - 1);
                pool.push_back(Signature::fromWords(28, &low));
                pool.push_back(Signature::fromWords(64, &low));
                const uint64_t w[3] = {rng(), 0, 0};
                pool.push_back(Signature::fromWords(65, w));
                pool.push_back(Signature::fromWords(130, w));
            }

            const int64_t quota = seed == 2 ? kSets * ways / 3 + 1 : 0;
            MCache c(kSets, ways, 2);
            if (quota > 0)
                c.setTenantQuota(quota, kTenants);
            ReferenceCache ref(kSets, ways, quota, kTenants);
            uint64_t epoch = 0;
            const int ops = std::max(600, 8 * kSets * ways);
            for (int op = 0; op < ops; ++op) {
                SCOPED_TRACE("op " + std::to_string(op));
                const int64_t e = static_cast<int64_t>(rng() % c.entries());
                const int tenant = static_cast<int>(rng() % 3) - 1;
                const uint64_t r = rng() % 100;
                if (r < 78) {
                    epoch += rng() % 2;
                    c.setEpoch(epoch);
                    ref.setEpoch(epoch);
                    c.setInsertTenant(tenant);
                    ref.setInsertTenant(tenant);
                    const Signature &sig = pool[rng() % pool.size()];
                    const McacheResult got = c.lookupOrInsert(sig);
                    const McacheResult want = ref.probe(sig);
                    ASSERT_EQ(got.outcome, want.outcome);
                    ASSERT_EQ(got.entryId, want.entryId);
                } else if (r < 80) {
                    // Age out what has gone untouched for a while.
                    const uint64_t age = static_cast<uint64_t>(
                        kSets * ways / 2 + rng() % (kSets * ways + 8));
                    const uint64_t floor = epoch > age ? epoch - age : 0;
                    ASSERT_EQ(c.evictOlderThan(floor),
                              ref.evict(false, floor, 0));
                } else if (r < 81) {
                    if (rng() % (ways / 8 + 1) == 0) {
                        ASSERT_EQ(c.evictTenant(tenant),
                                  ref.evict(true, 0, tenant));
                    }
                } else if (r < 87) {
                    if (ref.line(e).valid) {
                        c.pin(e);
                        ++ref.line(e).pins;
                    }
                } else if (r < 91) {
                    if (ref.line(e).pins > 0) {
                        c.unpin(e);
                        --ref.line(e).pins;
                    }
                } else if (r < 99) {
                    // Restore into a free line: half the time a tag
                    // already valid elsewhere in the same set.
                    if (ref.line(e).valid || ref.quotaFull(tenant))
                        continue;
                    Signature sig = pool[rng() % pool.size()];
                    const int64_t base = e / ways * ways;
                    for (int w = 0; w < ways && rng() % 2; ++w)
                        if (ref.line(base + w).valid) {
                            sig = ref.line(base + w).tag;
                            break;
                        }
                    c.restoreLine(e, sig, epoch, tenant);
                    ref.restore(e, sig, epoch, tenant);
                } else if (rng() % (ways / 8 + 1) == 0) {
                    // Rarer with more ways (as tenant eviction is), so
                    // wide sets still fill.
                    c.clear();
                    ref.clear();
                }

                ASSERT_EQ(c.stats().hits, ref.stats.hits);
                ASSERT_EQ(c.stats().mau, ref.stats.mau);
                ASSERT_EQ(c.stats().mnu, ref.stats.mnu);
                for (int set = 0; set < kSets; ++set)
                    ASSERT_EQ(c.setOccupancy(set), ref.occupancy(set));
                for (int t = 0; t < kTenants && quota > 0; ++t)
                    ASSERT_EQ(c.tenantReserved(t), ref.held(t));
                for (int64_t id = 0; id < c.entries(); ++id) {
                    const ReferenceCache::Line &l = ref.line(id);
                    ASSERT_EQ(c.tagValid(id), l.valid) << "entry " << id;
                    if (!l.valid)
                        continue;
                    ASSERT_TRUE(c.tagOf(id) == l.tag) << "entry " << id;
                    ASSERT_EQ(c.entryEpoch(id), l.epoch) << "entry " << id;
                    ASSERT_EQ(c.entryTenant(id), l.tenant) << "entry " << id;
                    ASSERT_EQ(c.pinCount(id), l.pins) << "entry " << id;
                }
            }
            // The stream reached every outcome.
            EXPECT_GT(ref.stats.hits, 0);
            EXPECT_GT(ref.stats.mau, 0);
            EXPECT_GT(ref.stats.mnu, 0);
        }
    }
}

TEST(McacheReference, BlockProbeMatchesFig9RulesAndOwnerRule)
{
    // MCache::probeBlock, the probe every detection pass runs, against
    // ReferenceCache and the owner rule restated over a map, on seeded
    // passes cut into random blocks of 1-300 rows: every organization
    // (ways 1..130, tags 1..130 bits), quota on and off, epoch and
    // tenant stamps, and persistent streams that install past the
    // installed list's capacity before a clear.
    constexpr int kSets = 3, kTenants = 2, kPasses = 24;
    const int lengths[] = {1, 28, 64, 65, 130};
    for (const int ways : {1, 3, 4, 5, 16, 63, 64, 65, 130}) {
        for (const bool quota_on : {false, true}) {
            for (const bool persistent : {false, true}) {
                const uint64_t run = static_cast<uint64_t>(ways) * 10 +
                                     (quota_on ? 2 : 0) + (persistent ? 1 : 0);
                SCOPED_TRACE("seed " + std::to_string(run) + " ways " +
                             std::to_string(ways) +
                             (quota_on ? " quota" : "") +
                             (persistent ? " persistent" : ""));
                std::mt19937_64 rng(run);
                // Per length about 1.5 tags per line, so a long pass
                // overflows sets into MNU and repeats HIT, plus tags
                // whose first words agree across lengths (28/64,
                // 65/130) for a persistent cache that holds both.
                std::vector<Signature> pool[5];
                const int per_length = kSets * ways * 3 / 2 + 2;
                for (int li = 0; li < 5; ++li)
                    for (int i = 0; i < per_length; ++i)
                        pool[li].push_back(randomSig(lengths[li], rng));
                for (int i = 0; i < 4; ++i) {
                    const uint64_t low = rng() & ((1ull << 28) - 1);
                    pool[1].push_back(Signature::fromWords(28, &low));
                    pool[2].push_back(Signature::fromWords(64, &low));
                    const uint64_t w[3] = {rng(), 0, 0};
                    pool[3].push_back(Signature::fromWords(65, w));
                    pool[4].push_back(Signature::fromWords(130, w));
                }

                const int64_t quota = quota_on ? kSets * ways / 3 + 1 : 0;
                MCache c(kSets, ways, 2);
                if (quota > 0)
                    c.setTenantQuota(quota, kTenants);
                ReferenceCache ref(kSets, ways, quota, kTenants);
                OwnerTable owners(c.entries());
                uint64_t epoch = 0;
                int64_t installs = 0; // since the last clear
                int64_t most_installs = 0;
                for (int pass = 0; pass < kPasses; ++pass) {
                    SCOPED_TRACE("pass " + std::to_string(pass));
                    const int li = static_cast<int>(rng() % 5);
                    const int bits = lengths[li];
                    const int wpr = Signature::wordsFor(bits);
                    const int tenant = static_cast<int>(rng() % 3) - 1;
                    epoch += 1 + rng() % 3;
                    c.setEpoch(epoch);
                    ref.setEpoch(epoch);
                    c.setInsertTenant(tenant);
                    ref.setInsertTenant(tenant);
                    if (!persistent || pass == kPasses - 1) {
                        c.clear();
                        ref.clear();
                        installs = 0;
                    } else {
                        c.resetInsertBacklog();
                        if (pass % 3 == 2) {
                            // Free lines so later passes install past
                            // entries() since the last clear.
                            const uint64_t floor = epoch - 2;
                            ASSERT_EQ(c.evictOlderThan(floor),
                                      ref.evict(false, floor, 0));
                        }
                    }

                    const int32_t rows = 1 + static_cast<int32_t>(
                        rng() % (3 * c.entries() + 200));
                    std::vector<Signature> sigs;
                    std::vector<uint64_t> words;
                    std::vector<int32_t> sets(static_cast<size_t>(rows));
                    for (int32_t r = 0; r < rows; ++r) {
                        sigs.push_back(pool[li][rng() % pool[li].size()]);
                        const Signature &sig = sigs.back();
                        words.insert(words.end(), sig.words(),
                                     sig.words() + wpr);
                        sets[static_cast<size_t>(r)] =
                            c.setIndexOf(bits, sig.words());
                    }

                    // The reference: Fig. 9 per row, then the owner rule
                    // (a HIT on an entry this pass installed forwards to
                    // the installing row) and the per-set backlog.
                    std::vector<McacheResult> want;
                    std::vector<int32_t> want_owner;
                    std::map<int64_t, int32_t> installed_by;
                    std::vector<uint64_t> backlog(kSets, 0);
                    int64_t want_forwarded = 0;
                    for (int32_t r = 0; r < rows; ++r) {
                        const McacheResult w =
                            ref.probe(sigs[static_cast<size_t>(r)]);
                        int32_t o = r;
                        if (w.outcome == McacheOutcome::Mau) {
                            installed_by[w.entryId] = r;
                            ++backlog[static_cast<size_t>(w.entryId / ways)];
                            ++installs;
                        } else if (w.outcome == McacheOutcome::Hit &&
                                   installed_by.count(w.entryId)) {
                            o = installed_by[w.entryId];
                        }
                        want.push_back(w);
                        want_owner.push_back(o);
                        want_forwarded += o != r;
                    }
                    most_installs = std::max(most_installs, installs);

                    // The probe, in random blocks; on odd passes the set
                    // indices sit in the entry-id slots, as the
                    // frontend's hash job leaves them.
                    std::vector<uint8_t> outcomes(static_cast<size_t>(rows));
                    std::vector<int32_t> ids(static_cast<size_t>(rows), -7);
                    std::vector<int32_t> own(static_cast<size_t>(rows), -7);
                    if (pass % 2)
                        ids = sets;
                    McacheProbe stream;
                    stream.bits = bits;
                    stream.wordsPerRow = wpr;
                    stream.words = words.data();
                    stream.sets = pass % 2 ? ids.data() : sets.data();
                    stream.outcomes = outcomes.data();
                    stream.entryIds = ids.data();
                    stream.owners = own.data();
                    for (int32_t r0 = 0; r0 < rows;) {
                        const int32_t r1 = std::min<int32_t>(
                            rows, r0 + 1 + static_cast<int32_t>(rng() % 300));
                        c.probeBlock(stream, r0, r1, &owners);
                        r0 = r1;
                    }
                    owners.nextPass();

                    McacheCounters mix;
                    for (int32_t r = 0; r < rows; ++r) {
                        const size_t i = static_cast<size_t>(r);
                        ASSERT_EQ(static_cast<McacheOutcome>(outcomes[i]),
                                  want[i].outcome)
                            << "row " << r;
                        ASSERT_EQ(ids[i], want[i].entryId) << "row " << r;
                        ASSERT_EQ(own[i], want_owner[i]) << "row " << r;
                        mix.hits += want[i].outcome == McacheOutcome::Hit;
                        mix.mau += want[i].outcome == McacheOutcome::Mau;
                        mix.mnu += want[i].outcome == McacheOutcome::Mnu;
                    }
                    EXPECT_EQ(stream.mix.hits, mix.hits);
                    EXPECT_EQ(stream.mix.mau, mix.mau);
                    EXPECT_EQ(stream.mix.mnu, mix.mnu);
                    EXPECT_EQ(stream.forwarded, want_forwarded);
                    ASSERT_EQ(c.stats().hits, ref.stats.hits);
                    ASSERT_EQ(c.stats().mau, ref.stats.mau);
                    ASSERT_EQ(c.stats().mnu, ref.stats.mnu);
                    ASSERT_EQ(c.maxInsertBacklog(),
                              *std::max_element(backlog.begin(),
                                                backlog.end()));
                    for (int set = 0; set < kSets; ++set)
                        ASSERT_EQ(c.setOccupancy(set), ref.occupancy(set));
                    for (int t = 0; t < kTenants && quota > 0; ++t)
                        ASSERT_EQ(c.tenantReserved(t), ref.held(t));
                    for (int64_t id = 0; id < c.entries(); ++id) {
                        const ReferenceCache::Line &l = ref.line(id);
                        ASSERT_EQ(c.tagValid(id), l.valid) << "entry " << id;
                        if (!l.valid)
                            continue;
                        ASSERT_TRUE(c.tagOf(id) == l.tag) << "entry " << id;
                        ASSERT_EQ(c.entryEpoch(id), l.epoch)
                            << "entry " << id;
                        ASSERT_EQ(c.entryTenant(id), l.tenant)
                            << "entry " << id;
                    }
                }
                if (persistent) {
                    EXPECT_GT(most_installs, c.entries())
                        << "the stream never filled the installed list";
                }
                EXPECT_GT(ref.stats.hits, 0);
                EXPECT_GT(ref.stats.mau, 0);
                EXPECT_GT(ref.stats.mnu, 0);
            }
        }
    }
}

} // namespace
} // namespace mercury
