/**
 * @file
 * Sharded MCACHE: N independent MCache shards behind the exact
 * semantics of one big MCache.
 *
 * A signature maps to a global set (hash % sets) exactly as in the
 * monolithic cache; the shard is the high bits of that set index
 * (shards own contiguous, disjoint set ranges). As long as each shard
 * sees its signatures in stream order — the detection pipeline probes
 * every block from one thread, in order — every outcome, entry id,
 * and per-set fill pattern is bit-identical to the single-cache path.
 * Per-shard statistics merge into one HitMix.
 *
 * Thread-safety contract:
 *
 *  - In concurrent mode (the default; see setConcurrent), every tag
 *    probe (lookupOrInsert / lookupOrInsertInSet) takes the owning
 *    shard's lock, so probes from several threads are safe. Distinct
 *    shards never contend. The DetectionFrontend switches the locks
 *    off for every pass that did not resolve overlapped on a pool.
 *  - Bit-identical outcomes still require ORDER, which locks alone do
 *    not provide: each shard must see its probes in stream order. The
 *    detection pipeline delivers blocks in order to provide exactly
 *    that (see docs/ARCHITECTURE.md).
 *  - clear() / lookupMix() / maxInsertBacklog() lock shard by shard;
 *    callers must be quiescent (no in-flight probes) for the
 *    aggregate to be meaningful.
 *  - shard() hands out a raw MCache reference and is NOT locked: it
 *    is for tests and statistics on a quiescent cache only.
 *
 * The class can also wrap an externally owned MCache as its single
 * shard, which is how the legacy engine constructors keep sharing a
 * caller-provided cache through the new pipeline front-end. The
 * wrapped cache must then only be accessed through this wrapper while
 * concurrent passes are in flight.
 */

#ifndef MERCURY_PIPELINE_SHARDED_MCACHE_HPP
#define MERCURY_PIPELINE_SHARDED_MCACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/mcache.hpp"
#include "sim/dataflow.hpp"

namespace mercury {

/** N-shard MCACHE with monolithic-MCache semantics. */
class ShardedMCache
{
  public:
    /**
     * Owning form: exactly min(max(shards, 1), sets) disjoint MCache
     * shards covering `sets` global sets in total, sized within one
     * set of each other (floor/ceil distribution).
     */
    ShardedMCache(int sets, int ways, int data_versions, int shards);

    /** View form: wrap an external MCache as the single shard. */
    explicit ShardedMCache(MCache &external);

    int sets() const { return sets_; }
    int ways() const { return ways_; }
    int dataVersions() const { return versions_; }
    int shardCount() const { return static_cast<int>(shards_.size()); }
    int64_t entries() const { return static_cast<int64_t>(sets_) * ways_; }

    /**
     * Global set index of the signature with these packed words
     * (identical to MCache::setIndexOf of that signature).
     */
    int setIndexOf(int bits, const uint64_t *words) const
    {
        return static_cast<int>(Signature::hashWords(bits, words) %
                                static_cast<uint64_t>(sets_));
    }

    /** Shard owning a global set (its high bits). */
    int shardOfSet(int set) const;

    /** Monolithic-equivalent lookup (single-threaded convenience). */
    McacheResult lookupOrInsert(const Signature &sig);

    /**
     * Lookup of packed signature words (MCache::lookupOrInsertInSet)
     * with a precomputed global set index. Locked per shard, so
     * probes of different shards may run concurrently; for
     * bit-identical results each shard must still be presented its
     * signatures in stream order (the pipeline's one in-order
     * prober).
     */
    McacheResult lookupOrInsertInSet(int set, int bits,
                                     const uint64_t *words);

    /**
     * Software-prefetch a global set's lines ahead of a probe (see
     * MCache::prefetchSet). Lock-free by design — a prefetch of a
     * line another thread is writing is harmless, the probe itself
     * still goes through the shard lock.
     */
    void prefetchSet(int set) const
    {
        const int s = shardOfSet(set);
        shards_[static_cast<size_t>(s)]->prefetchSet(
            set - shardBaseSet_[static_cast<size_t>(s)]);
    }

    /** Clear the tags of every shard. Quiescent only. */
    void clear();

    /**
     * Toggle the per-shard locking of probes.
     * On (the construction default) whenever worker threads may touch
     * the cache; a purely single-threaded driver may switch it off to
     * keep the hot paths lock-free. Must only be toggled while the
     * cache is quiescent (no pass or filter tasks in flight).
     */
    void setConcurrent(bool concurrent) { concurrent_ = concurrent; }
    bool concurrent() const { return concurrent_; }

    /** Largest per-set insert backlog across all shards (§V). */
    uint64_t maxInsertBacklog() const;

    /** Reset the §V insert-queue model at a persistent pass boundary. */
    void resetInsertBacklog();

    // ---- Serving-layer lifecycle (see docs/ARCHITECTURE.md) ---------

    /**
     * Pass guard for shared serving: a session that shares this cache
     * with other sessions holds the returned lock for the duration of
     * its cache-touching job, serializing whole passes (and eviction /
     * epoch maintenance) across sessions. The per-shard locks above
     * still cover the intra-pass worker threads of whichever session
     * holds the guard. Single-session users never need it.
     */
    std::unique_lock<std::mutex> passGuard() const;

    /** Stamp subsequent inserts/HIT-refreshes with `epoch` (all shards). */
    void setEpoch(uint64_t epoch);
    uint64_t epoch() const;

    /** Stamp subsequent inserts with `tenant` (all shards). */
    void setInsertTenant(int tenant);

    /**
     * Enable a per-tenant line quota: once a tenant holds `entries`
     * valid lines, further inserts for it become MNU until eviction
     * frees lines. Reservation is an atomic compare-exchange that
     * never moves a counter past the quota, so the quota is never
     * exceeded — not even transiently — under concurrent interleaved
     * inserts. `entries` <= 0 disables the gate. Tenants are ids in
     * [0, max_tenants); id -1 (unowned) is never gated.
     */
    void setTenantQuota(int64_t entries, int max_tenants = 64);
    int64_t tenantQuota() const { return quotaEntries_; }

    /** Lines currently reserved for `tenant` by the quota gate. */
    int64_t tenantReserved(int tenant) const;

    /**
     * Recompute the quota-gate reservations from the actual cache
     * contents (after a snapshot restore, which bypasses the gate).
     * Quiescent only.
     */
    void recountTenantReservations();

    /** Evict unpinned lines last touched before `min_epoch` (all shards). */
    int64_t evictOlderThan(uint64_t min_epoch);

    /** Evict every unpinned line stamped with `tenant` (all shards). */
    int64_t evictTenant(int tenant);

    /** Pin/unpin a line against eviction (global entry id). */
    void pin(int64_t entry_id);
    void unpin(int64_t entry_id);

    /** Lifecycle metadata of a line (global entry id). */
    bool tagValid(int64_t entry_id) const;
    uint64_t entryEpoch(int64_t entry_id) const;
    int entryTenant(int64_t entry_id) const;

    /** Copy of a valid line's tag (snapshot serialization). */
    Signature tagAt(int64_t entry_id) const;

    /** Snapshot restore of one line (global entry id; quiescent only). */
    void restoreLine(int64_t entry_id, const Signature &sig,
                     uint64_t epoch, int tenant);

    /** Per-shard lifetime stats merged into one HitMix. */
    HitMix lookupMix() const;

    /** Direct shard access (tests, stats; unlocked, quiescent only). */
    MCache &shard(int s);
    const MCache &shard(int s) const;

  private:
    /**
     * Atomic per-tenant line counter behind McacheQuotaGate: a
     * reservation compare-exchanges the counter from a value below
     * the quota to the next one, so concurrent inserts can never push
     * a tenant past its quota and reserved() never reads above it.
     */
    class TenantQuotaGate : public McacheQuotaGate
    {
      public:
        TenantQuotaGate(int64_t quota, int max_tenants);
        bool tryReserve(int tenant) override;
        void release(int tenant) override;
        int64_t reserved(int tenant) const;
        int maxTenants() const { return maxTenants_; }
        void reset();

      private:
        int64_t quota_;
        int maxTenants_;
        std::unique_ptr<std::atomic<int64_t>[]> counts_;
    };

    std::vector<std::unique_ptr<MCache>> owned_;
    std::vector<MCache *> shards_;
    std::vector<int> shardBaseSet_; ///< first global set of each shard
    /// One lock per shard guarding its tags, metadata, and counters.
    /// Heap array because std::mutex is immovable. Mutable: const
    /// readers (lookupMix, entry metadata) lock too.
    mutable std::unique_ptr<std::mutex[]> shardLocks_;
    /// Locks engaged (worker threads may touch the cache). Atomic so
    /// workers may read it while the driver thread owns toggling;
    /// toggles only happen on a quiescent cache.
    std::atomic<bool> concurrent_{true};
    /// Serializes whole passes from concurrent sessions (passGuard).
    /// Mutable: read-mostly sessions (stats sweeps) guard too.
    mutable std::mutex passMutex_;
    std::unique_ptr<TenantQuotaGate> quotaGate_;
    int64_t quotaEntries_ = 0;
    int sets_;
    int ways_;
    int versions_;
    // Floor/ceil set distribution: the first setRemainder_ shards
    // hold setQuota_ + 1 sets, the rest setQuota_.
    int setQuota_;
    int setRemainder_;

    /** Shard plus local entry id of a global entry id. */
    struct Ref
    {
        MCache *cache;
        int64_t localId;
        int shard;
    };

    Ref refOf(int64_t entry_id) const;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_SHARDED_MCACHE_HPP
