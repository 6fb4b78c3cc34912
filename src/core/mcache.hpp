/**
 * @file
 * MCACHE: the signature-indexed result cache at the heart of MERCURY
 * (§III-B3, §III-C1, §V).
 *
 * Differences from an ordinary cache, per the paper:
 *  - the tag (signature) becomes valid before the data (computed dot
 *    products), so every line has a Valid-Tag bit and per-version
 *    Valid-Data bits that are set independently;
 *  - there is no replacement: inserting into a full set fails (the
 *    requesting vector becomes Miss-No-Update);
 *  - the data portion is multi-version (one slot per in-flight
 *    filter) so the asynchronous design can keep results of several
 *    filters alive at once;
 *  - entries are also addressable by a dense id so later accesses
 *    skip tag comparison (§V), and per-set insert queues serialize
 *    simultaneous inserts.
 *
 * This class models the tag half. Probes compare packed signature
 * words (the Signature::words layout), so the detection pipeline
 * probes the words its hash job wrote, with no Signature built;
 * lookupOrInsert(Signature) probes a signature's own words. The data
 * half lives with the engines: the probe resolves every pass's owner
 * map (OwnerTable, pipeline/signature_record.hpp) and its HIT rows take
 * their owner row's result. `dataVersions` stays part of the
 * organization — the cycle model charges the Fig. 11 version
 * constraint, and replay records and snapshots carry it.
 *
 * Tag store: each set keeps a valid-way bitmap of ceil(ways / 64)
 * words, the only record of which lines hold a tag, and each line its
 * first tag word and tag length in flat arrays (later words of tags
 * longer than 64 bits live apart). A probe walks the set's valid bits
 * lowest-first comparing first word and length — the remaining words
 * only for long tags — and a miss takes the lowest clear bit: the
 * Fig. 9 first-match and first-free-way rules. Epoch, tenant and pins
 * sit in a separate array, off the compare path.
 *
 * An MCache takes no locks: one thread at a time touches a cache.
 * The detection pipeline probes on its driving thread only, and the
 * serving layer orders the jobs that reach a cache (see
 * docs/ARCHITECTURE.md, "Who touches a cache").
 */

#ifndef MERCURY_CORE_MCACHE_HPP
#define MERCURY_CORE_MCACHE_HPP

#include <cstdint>
#include <vector>

#include "core/signature.hpp"
#include "util/prefetch.hpp"

namespace mercury {

/** Outcome of presenting a signature to MCACHE (Fig. 9). */
enum class McacheOutcome
{
    Hit, ///< signature already present: reuse
    Mau, ///< miss-and-update: tag inserted, data to follow
    Mnu, ///< miss-no-update: set full, nothing inserted
};

/** Printable name of an outcome. */
const char *mcacheOutcomeName(McacheOutcome outcome);

/** Result of an MCACHE lookup: outcome plus the entry id (if any). */
struct McacheResult
{
    McacheOutcome outcome = McacheOutcome::Mnu;
    int64_t entryId = -1; ///< dense id (set * ways + way), -1 for MNU
};

/** Lifetime probe outcome counts of one MCACHE. */
struct McacheCounters
{
    int64_t hits = 0;
    int64_t mau = 0;
    int64_t mnu = 0;
};

/** The MERCURY result cache. */
class MCache
{
  public:
    /**
     * @param sets          number of sets
     * @param ways          associativity
     * @param data_versions data slots per line (in-flight filters M)
     */
    MCache(int sets, int ways, int data_versions);

    int sets() const { return sets_; }
    int ways() const { return ways_; }
    int dataVersions() const { return versions_; }
    int64_t entries() const { return static_cast<int64_t>(sets_) * ways_; }

    /**
     * Present a signature: HIT if present, otherwise insert (MAU) or
     * report a full set (MNU). Implements the Fig. 9 flow.
     */
    McacheResult lookupOrInsert(const Signature &sig);

    /**
     * lookupOrInsert of the signature whose packed words are `words`
     * (Signature::words layout, bits past `bits` zero), with an
     * externally computed set index (setIndexOf). The detection
     * pipeline's entry point: its hash tasks take each row's set index
     * off the probing thread, and the probe compares the hash job's
     * packed words as they are.
     */
    McacheResult lookupOrInsertInSet(int set, int bits,
                                     const uint64_t *words);

    /**
     * Clear every tag: a new channel's vectors arrived. Costs the
     * lines installed since the last clear, not the whole cache: only
     * those can differ from a fresh line. Once more installs than
     * entries() have happened since the last clear (a persistent
     * cache), it walks every line instead.
     */
    void clear();

    /** Set index of the signature with these packed words. */
    int setIndexOf(int bits, const uint64_t *words) const
    {
        return static_cast<int>(Signature::hashWords(bits, words) %
                                static_cast<uint64_t>(sets_));
    }

    /**
     * Software-prefetch the set's tag words and valid mask ahead of a
     * probe. A pure host-side hint: no stats, no state, nothing the
     * timing model sees. The streaming probe loop uses it to pull row
     * i+1's set into cache while row i's tag compare runs.
     */
    void prefetchSet(int set) const
    {
        const uint64_t *w = &tagWord0_[static_cast<size_t>(set) * ways_];
        for (int b = 0; b < ways_; b += 8)
            prefetchRead(w + b);
        prefetchRead(w + ways_ - 1); // the last line of an unaligned set
        prefetchRead(&valid_[static_cast<size_t>(set) * maskWords_]);
    }

    /** Occupancy (valid tags) of one set. */
    int setOccupancy(int set) const;

    /**
     * Drain-cost model of the per-set insert queues (§V): given the
     * inserts recorded since the last clear, the serialization cost
     * is the largest per-set insert count.
     */
    uint64_t maxInsertBacklog() const;

    /**
     * Reset the insert-queue model without touching tags. Persistent
     * passes (serving layer) call this at each pass boundary, where
     * the non-persistent path would have called clear(), so the §V
     * drain cost stays a per-pass quantity.
     */
    void resetInsertBacklog();

    // ---- Lifecycle metadata (serving layer) -------------------------
    //
    // Every line carries a last-touch epoch (stamped on insert,
    // refreshed on HIT), an owning tenant (stamped on insert), and a
    // pin count. Eviction sweeps remove valid lines by epoch age or by
    // tenant but never remove a pinned line, so a client holding a
    // HIT's entry id across an eviction sweep pins it first (see
    // docs/ARCHITECTURE.md, "Serving layer").

    /** Epoch stamped on inserts and refreshed on HITs from now on. */
    void setEpoch(uint64_t epoch) { epoch_ = epoch; }
    uint64_t epoch() const { return epoch_; }

    /** Tenant stamped on inserts from now on (-1 = unowned). */
    void setInsertTenant(int tenant) { insertTenant_ = tenant; }
    int insertTenant() const { return insertTenant_; }

    /**
     * Per-tenant line quota (serving layer, one cache shared by
     * tenants): once a tenant holds `entries` valid lines, its further
     * inserts become MNU until eviction or clear() frees lines.
     * Tenants are ids in [0, max_tenants); unowned lines (-1) are
     * never counted. `entries` <= 0 switches the quota off. Counts the
     * lines the cache already holds, which must fit the quota.
     */
    void setTenantQuota(int64_t entries, int max_tenants = 64);
    int64_t tenantQuota() const { return quota_; }

    /** Tenant ids the quota covers: [0, quotaTenants()). */
    int quotaTenants() const
    {
        return static_cast<int>(tenantLines_.size());
    }

    /** Valid lines counted against `tenant`'s quota (0 when off). */
    int64_t tenantReserved(int tenant) const;

    /** Last-touch epoch of a line (insert-stamped, HIT-refreshed). */
    uint64_t entryEpoch(int64_t entry_id) const;

    /** Owning tenant of a line (-1 when inserted unowned). */
    int entryTenant(int64_t entry_id) const;

    /** True if the line holds a valid tag. */
    bool tagValid(int64_t entry_id) const;

    /** Tag of a valid line; panics on an invalid line. */
    Signature tagOf(int64_t entry_id) const;

    /** Valid lines currently stamped with `tenant`. */
    int64_t tenantEntries(int tenant) const;

    /** Pin a valid line against eviction / unpin it again. */
    void pin(int64_t entry_id);
    void unpin(int64_t entry_id);
    uint32_t pinCount(int64_t entry_id) const;

    /**
     * Evict valid, unpinned lines last touched before `min_epoch`
     * (epoch-tag aging: oldest lines go first as the floor rises).
     * Returns the number of lines evicted; pinned lines survive.
     */
    int64_t evictOlderThan(uint64_t min_epoch);

    /** Evict every valid, unpinned line stamped with `tenant`. */
    int64_t evictTenant(int tenant);

    /**
     * Snapshot restore: install a tag plus lifecycle metadata into an
     * empty line (panics if the line already holds a valid tag — the
     * restore target must be cleared first). The line counts against
     * its tenant's quota; a line the quota cannot take panics, so
     * callers check the whole section first (Snapshot::restoreCache).
     */
    void restoreLine(int64_t entry_id, const Signature &sig,
                     uint64_t epoch, int tenant);

    /** Lifetime probe outcome counts (clear() keeps them). */
    const McacheCounters &stats() const { return stats_; }

  private:
    /** Lifecycle metadata of one line (never read by the compare). */
    struct Meta
    {
        uint64_t epoch = 0; ///< last-touch epoch (insert / HIT)
        int tenant = -1;    ///< owning tenant (-1 = unowned)
        uint32_t pins = 0;  ///< eviction pins (in-flight HITs)
    };

    /** A line by set and way (entry id set * ways + way). */
    struct Way
    {
        int set, way;
    };

    int sets_;
    int ways_;
    int versions_;
    int maskWords_; ///< valid-mask words per set, ceil(ways / 64)
    /// Valid-way bitmap, maskWords_ words per set: bit w of word w / 64.
    std::vector<uint64_t> valid_;
    std::vector<uint64_t> tagWord0_; ///< first tag word per line
    std::vector<int32_t> tagBits_;   ///< tag length per line
    /// Words past the first of tags longer than 64 bits, per line.
    std::vector<std::vector<uint64_t>> tagRest_;
    std::vector<Meta> meta_;
    std::vector<uint64_t> insertBacklog_;
    /// Lines installed since the last clear (insert or restore), at
    /// most entries() of them; every other line is as constructed.
    std::vector<Way> installed_;
    bool installedOverflow_ = false; ///< list full: clear walks all
    uint64_t epoch_ = 0;
    int insertTenant_ = -1;
    int64_t quota_ = 0;                ///< per-tenant line quota, 0 = off
    std::vector<int64_t> tenantLines_; ///< quota'd lines per tenant id
    McacheCounters stats_;

    /** The line of an entry id; panics outside [0, entries()). */
    Way wayOf(int64_t entry_id) const;
    uint64_t &maskWord(Way l);
    bool valid(Way l) const;
    Meta &meta(Way l);
    const Meta &meta(Way l) const;
    void install(int64_t entry_id, int bits, const uint64_t *words);
    /** Invalidate a valid line, releasing its quota (pins stay). */
    void dropLine(Way l);
    /** Drop every valid, unpinned line whose metadata `evict` picks. */
    template <typename Pred>
    int64_t evictWhere(Pred &&evict);
    void noteInstalled(Way l);
    void resetLine(Way l);
    int64_t *quotaCount(int tenant);
    void countQuotaLine(int tenant);
};

} // namespace mercury

#endif // MERCURY_CORE_MCACHE_HPP
