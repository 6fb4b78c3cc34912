#include "pipeline/sharded_mcache.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace mercury {

ShardedMCache::ShardedMCache(int sets, int ways, int data_versions,
                             int shards)
    : sets_(sets), ways_(ways), versions_(data_versions)
{
    if (sets <= 0 || ways <= 0 || data_versions <= 0)
        fatal("ShardedMCache needs positive sets/ways/versions, got ",
              sets, "/", ways, "/", data_versions);
    const int count = std::clamp(shards, 1, sets);
    setQuota_ = sets / count;
    setRemainder_ = sets % count;
    int base = 0;
    for (int s = 0; s < count; ++s) {
        const int local_sets = setQuota_ + (s < setRemainder_ ? 1 : 0);
        owned_.push_back(std::make_unique<MCache>(local_sets, ways,
                                                  data_versions));
        shards_.push_back(owned_.back().get());
        shardBaseSet_.push_back(base);
        base += local_sets;
    }
    shardLocks_ = std::make_unique<std::mutex[]>(shards_.size());
}

ShardedMCache::ShardedMCache(MCache &external)
    : sets_(external.sets()), ways_(external.ways()),
      versions_(external.dataVersions()), setQuota_(external.sets()),
      setRemainder_(0)
{
    shards_.push_back(&external);
    shardBaseSet_.push_back(0);
    shardLocks_ = std::make_unique<std::mutex[]>(1);
}

int
ShardedMCache::shardOfSet(int set) const
{
    if (set < 0 || set >= sets_)
        panic("set index ", set, " out of range 0..", sets_ - 1);
    // First setRemainder_ shards hold setQuota_ + 1 sets each.
    const int big_span = setRemainder_ * (setQuota_ + 1);
    if (set < big_span)
        return set / (setQuota_ + 1);
    return setRemainder_ + (set - big_span) / setQuota_;
}

McacheResult
ShardedMCache::lookupOrInsert(const Signature &sig)
{
    return lookupOrInsertInSet(setIndexOf(sig.bits(), sig.words()),
                               sig.bits(), sig.words());
}

McacheResult
ShardedMCache::lookupOrInsertInSet(int set, int bits,
                                   const uint64_t *words)
{
    const int s = shardOfSet(set);
    const int base = shardBaseSet_[static_cast<size_t>(s)];
    McacheResult r;
    {
        std::unique_lock<std::mutex> lock(
            shardLocks_[static_cast<size_t>(s)], std::defer_lock);
        if (concurrent_.load(std::memory_order_relaxed))
            lock.lock();
        r = shards_[static_cast<size_t>(s)]->lookupOrInsertInSet(
            set - base, bits, words);
    }
    if (r.entryId >= 0)
        r.entryId += static_cast<int64_t>(base) * ways_;
    return r;
}

ShardedMCache::Ref
ShardedMCache::refOf(int64_t entry_id) const
{
    if (entry_id < 0 || entry_id >= entries())
        panic("ShardedMCache entry id ", entry_id, " out of range");
    const int s = shardOfSet(static_cast<int>(entry_id / ways_));
    const int base = shardBaseSet_[static_cast<size_t>(s)];
    return {shards_[static_cast<size_t>(s)],
            entry_id - static_cast<int64_t>(base) * ways_, s};
}

void
ShardedMCache::clear()
{
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        shards_[s]->clear();
    }
}

uint64_t
ShardedMCache::maxInsertBacklog() const
{
    uint64_t mx = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        mx = std::max(mx, shards_[s]->maxInsertBacklog());
    }
    return mx;
}

void
ShardedMCache::resetInsertBacklog()
{
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        shards_[s]->resetInsertBacklog();
    }
}

std::unique_lock<std::mutex>
ShardedMCache::passGuard() const
{
    return std::unique_lock<std::mutex>(passMutex_);
}

void
ShardedMCache::setEpoch(uint64_t epoch)
{
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        shards_[s]->setEpoch(epoch);
    }
}

uint64_t
ShardedMCache::epoch() const
{
    return shards_[0]->epoch();
}

void
ShardedMCache::setInsertTenant(int tenant)
{
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        shards_[s]->setInsertTenant(tenant);
    }
}

ShardedMCache::TenantQuotaGate::TenantQuotaGate(int64_t quota,
                                                int max_tenants)
    : quota_(quota), maxTenants_(max_tenants)
{
    counts_ = std::make_unique<std::atomic<int64_t>[]>(
        static_cast<size_t>(max_tenants));
    reset();
}

void
ShardedMCache::TenantQuotaGate::reset()
{
    for (int t = 0; t < maxTenants_; ++t)
        counts_[static_cast<size_t>(t)].store(0,
                                              std::memory_order_relaxed);
}

bool
ShardedMCache::TenantQuotaGate::tryReserve(int tenant)
{
    if (tenant < 0)
        return true; // unowned inserts are never gated
    if (tenant >= maxTenants_)
        panic("tenant id ", tenant, " out of quota-gate range 0..",
              maxTenants_ - 1);
    // Compare-exchange reservation: the counter only moves from a
    // value below the quota to the next one, so it never exceeds the
    // quota, even transiently (a concurrent reserved() reads at most
    // the quota), and two racing inserts cannot both take the last
    // slot.
    std::atomic<int64_t> &count = counts_[static_cast<size_t>(tenant)];
    int64_t cur = count.load(std::memory_order_relaxed);
    do {
        if (cur >= quota_)
            return false;
    } while (!count.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_relaxed));
    return true;
}

void
ShardedMCache::TenantQuotaGate::release(int tenant)
{
    if (tenant < 0 || tenant >= maxTenants_)
        return; // unowned lines never reserved
    counts_[static_cast<size_t>(tenant)].fetch_sub(
        1, std::memory_order_relaxed);
}

int64_t
ShardedMCache::TenantQuotaGate::reserved(int tenant) const
{
    if (tenant < 0 || tenant >= maxTenants_)
        return 0;
    return counts_[static_cast<size_t>(tenant)].load(
        std::memory_order_relaxed);
}

void
ShardedMCache::setTenantQuota(int64_t entries, int max_tenants)
{
    quotaEntries_ = entries > 0 ? entries : 0;
    if (quotaEntries_ == 0) {
        quotaGate_.reset();
    } else {
        quotaGate_ =
            std::make_unique<TenantQuotaGate>(quotaEntries_, max_tenants);
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        shards_[s]->setQuotaGate(quotaGate_.get());
    }
    if (quotaGate_)
        recountTenantReservations();
}

int64_t
ShardedMCache::tenantReserved(int tenant) const
{
    return quotaGate_ ? quotaGate_->reserved(tenant) : 0;
}

void
ShardedMCache::recountTenantReservations()
{
    if (!quotaGate_)
        return;
    quotaGate_->reset();
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        MCache &shard = *shards_[s];
        for (int64_t e = 0; e < shard.entries(); ++e) {
            if (!shard.tagValid(e))
                continue;
            const int tenant = shard.entryTenant(e);
            if (tenant >= 0 && !quotaGate_->tryReserve(tenant))
                panic("snapshot contents exceed the tenant quota for "
                      "tenant ",
                      tenant);
        }
    }
}

int64_t
ShardedMCache::evictOlderThan(uint64_t min_epoch)
{
    int64_t evicted = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        evicted += shards_[s]->evictOlderThan(min_epoch);
    }
    return evicted;
}

int64_t
ShardedMCache::evictTenant(int tenant)
{
    int64_t evicted = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        evicted += shards_[s]->evictTenant(tenant);
    }
    return evicted;
}

void
ShardedMCache::pin(int64_t entry_id)
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    ref.cache->pin(ref.localId);
}

void
ShardedMCache::unpin(int64_t entry_id)
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    ref.cache->unpin(ref.localId);
}

bool
ShardedMCache::tagValid(int64_t entry_id) const
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    return ref.cache->tagValid(ref.localId);
}

uint64_t
ShardedMCache::entryEpoch(int64_t entry_id) const
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    return ref.cache->entryEpoch(ref.localId);
}

int
ShardedMCache::entryTenant(int64_t entry_id) const
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    return ref.cache->entryTenant(ref.localId);
}

Signature
ShardedMCache::tagAt(int64_t entry_id) const
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    return ref.cache->tagOf(ref.localId);
}

void
ShardedMCache::restoreLine(int64_t entry_id, const Signature &sig,
                           uint64_t epoch, int tenant)
{
    const Ref ref = refOf(entry_id);
    std::lock_guard<std::mutex> lock(
        shardLocks_[static_cast<size_t>(ref.shard)]);
    ref.cache->restoreLine(ref.localId, sig, epoch, tenant);
}

HitMix
ShardedMCache::lookupMix() const
{
    HitMix mix;
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shardLocks_[s]);
        const McacheCounters &c = shards_[s]->stats();
        mix.hit += c.hits;
        mix.mau += c.mau;
        mix.mnu += c.mnu;
    }
    mix.vectors = mix.hit + mix.mau + mix.mnu;
    return mix;
}

MCache &
ShardedMCache::shard(int s)
{
    if (s < 0 || s >= shardCount())
        panic("shard index ", s, " out of range");
    return *shards_[static_cast<size_t>(s)];
}

const MCache &
ShardedMCache::shard(int s) const
{
    if (s < 0 || s >= shardCount())
        panic("shard index ", s, " out of range");
    return *shards_[static_cast<size_t>(s)];
}

} // namespace mercury
