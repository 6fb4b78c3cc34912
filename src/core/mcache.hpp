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
 *    simultaneous inserts — a timing effect, which the cost model
 *    charges from each pass's mix (Dataflow::insertOverhead, the event
 *    backend's McacheSim); this class keeps no queue.
 *
 * This class models the tag half. Probes compare packed signature
 * words (the Signature::words layout), so the detection pipeline
 * probes the words its hash job wrote, with no Signature built. The
 * data half lives with the engines: the probe resolves every pass's
 * owner map (OwnerTable below) and its HIT rows take their owner
 * row's result. `dataVersions` stays part of the organization — the
 * cycle model charges the Fig. 11 version constraint, and replay
 * records and snapshots carry it.
 *
 * Tag store: each set keeps a valid-way bitmap of ceil(ways / 64)
 * words, the only record of which lines hold a tag. Each line keeps a
 * record of its first tag word, tag length, epoch and tenant (later
 * words of tags longer than 64 bits live apart), and a 32-bit key of
 * its tag in a flat array the probe compares a set's ways in.
 *
 * One probe (probeBlock): the hardware compares a set's ways at once
 * and the outcome only steers which rows compute (§III-B3, Fig. 9), so
 * the probe of a block of rows branches on no row's outcome. Per row it
 * compares the row's key with every way's key at once (SSE2, 16 ways a
 * block), masks the candidates by the valid bits and checks the first
 * in full (a key match that is not the tag walks the rest, rarely),
 * picks the first matching way or else the lowest free one by masks —
 * the Fig. 9 first-match and first-free-way rules — and writes the
 * valid bit, the line's record and key, installed list, quota count,
 * counters and owner table by masks (a write a row does not make goes
 * to a sink past the last set). It prefetches the set of the row eight
 * ahead. What holds for a whole block (tags over 64 bits or sets over
 * 64 ways: a walk of the valid ways; a quota; an owner table) stays a
 * predictable branch inside that loop.
 * lookupOrInsert is its one-row case.
 *
 * An MCache takes no locks: one thread at a time touches a cache.
 * The detection pipeline probes on its driving thread only, and the
 * serving layer orders the jobs that reach a cache (see
 * docs/ARCHITECTURE.md, "Who touches a cache").
 */

#ifndef MERCURY_CORE_MCACHE_HPP
#define MERCURY_CORE_MCACHE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/signature.hpp"

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

/** Probe outcome counts (an MCACHE's lifetime, or a stream's). */
struct McacheCounters
{
    int64_t hits = 0;
    int64_t mau = 0;
    int64_t mnu = 0;
};

/**
 * The owner rule of one detection pass (§III-C3, the "earlier PE"),
 * with storage reused across passes. A row that HITs an entry an
 * earlier row of the same pass installed (MAU) is owned by that row —
 * the latest such row, if the entry was installed twice; every other
 * row (MAU, MNU, or a HIT on an entry no row of this pass installed)
 * owns itself. Owners are therefore always rows that compute, and
 * forwarding chains have depth one.
 *
 * Rows are fed in stream order, one pass at a time; nextPass() then
 * forgets only the entries that pass installed, so a table sized once
 * to the cache's entry count serves every pass. The MCACHE probe
 * (MCache::probeBlock, one table per DetectionFrontend) and
 * SignatureRecord, for a pass that comes without an owner map, apply
 * the rule through one branch-free body (Cursor::resolve).
 */
class OwnerTable
{
  public:
    /** Empty table over `entries` MCACHE entries. */
    explicit OwnerTable(int64_t entries)
        : ownerOfEntry_(static_cast<size_t>(entries) + 1, -1)
    {
    }

    int64_t entries() const
    {
        return static_cast<int64_t>(ownerOfEntry_.size()) - 1;
    }

    /**
     * Owner of `row` (stream order), given its outcome and entry id:
     * HIT and MAU ids must lie in [0, entries()).
     */
    int32_t ownerOf(int32_t row, McacheOutcome outcome, int64_t entry)
    {
        if (outcome == McacheOutcome::Mnu)
            return row; // touches no entry
        Cursor c = cursor(1);
        const int32_t o = c.resolve(row, outcome == McacheOutcome::Hit,
                                    outcome == McacheOutcome::Mau, entry);
        count_ = c.count;
        return o;
    }

    /** Begin the next pass: forget the entries the last one installed. */
    void nextPass()
    {
        for (size_t i = 0; i < count_; ++i)
            ownerOfEntry_[static_cast<size_t>(installed_[i])] = -1;
        count_ = 0;
    }

  private:
    friend class MCache;

    /**
     * The rule over the table's storage, in values the MCACHE probe
     * keeps in registers across a block.
     */
    struct Cursor
    {
        int32_t *ownerOfEntry;
        int64_t *installed;
        size_t count;
        int64_t sink; ///< the slot past the last entry

        /**
         * Owner of `row`, whose probe HIT (`hit`) or installed
         * (`installs`) the entry `line`; a row that did neither may
         * name any entry in [0, entries()) and leaves the table as it
         * was. Written without a branch: a probe's outcomes come in no
         * predictable order.
         */
        int32_t resolve(int32_t row, bool hit, bool installs, int64_t line)
        {
            const int32_t o = ownerOfEntry[line];
            const int32_t forwards = -static_cast<int32_t>(hit & (o >= 0));
            installed[count] = line; // one spare slot past entries()
            count += static_cast<size_t>(installs & (o < 0));
            // Only an install changes the entry's owner; every other
            // row writes the sink.
            ownerOfEntry[line + ((sink - line) &
                                 (static_cast<int64_t>(installs) - 1))] = row;
            return (o & forwards) | (row & ~forwards);
        }
    };

    /** A cursor with room in the installed list for `rows` more rows. */
    Cursor cursor(int64_t rows)
    {
        const size_t most = ownerOfEntry_.size();
        const size_t need =
            std::min(count_ + static_cast<size_t>(rows) + 1, most);
        if (installed_.size() < need)
            installed_.resize(std::min(std::max(need, 2 * installed_.size()),
                                       most));
        return {ownerOfEntry_.data(), installed_.data(), count_, entries()};
    }

    /// -1, or the installing row; plus the sink slot past the last entry
    std::vector<int32_t> ownerOfEntry_;
    /// Entries set this pass: [0, count_), each at most once, and
    /// room for the slot resolve() writes unconditionally.
    std::vector<int64_t> installed_;
    size_t count_ = 0;
};

/**
 * A probe stream over a pass's rows (MCache::probeBlock): where each
 * row's words and set index are, and where its outcome, entry id and
 * owner go. Row r's words sit at words + r * wordsPerRow (bits past
 * `bits` zero); `sets` may alias `entryIds` (each row's set index is
 * read before its entry id is written). Every probed block adds its
 * rows to `mix` and its forwarded rows (owner != row) to `forwarded`.
 */
struct McacheProbe
{
    int bits = 0;
    int64_t wordsPerRow = 0;
    const uint64_t *words = nullptr;
    const int32_t *sets = nullptr; ///< setIndexOf per row
    uint8_t *outcomes = nullptr;   ///< McacheOutcome per row
    int32_t *entryIds = nullptr;   ///< entry id per row, -1 for MNU
    int32_t *owners = nullptr;     ///< owner per row (with an OwnerTable)
    McacheCounters mix;
    int64_t forwarded = 0;
};

/**
 * n % d for every 64-bit n and a divisor d in [1, 2^32), without a
 * division: d's reciprocal c = ceil(2^128 / d), kept mod 2^128, gives
 * n % d = ((c * n mod 2^128) * d) >> 128 (Lemire, Kaser and Kurz,
 * "Faster Remainder by Direct Computation", 2019). One formula for
 * every d, 1 included (c wraps to 0). MCache keeps one for its set
 * count, so a row's set index pays no division.
 */
class ExactRemainder
{
  public:
    explicit ExactRemainder(uint32_t d)
        : d_(d), c_(~static_cast<unsigned __int128>(0) / d + 1)
    {
    }

    uint32_t operator()(uint64_t n) const
    {
        const unsigned __int128 low = c_ * n;
        const unsigned __int128 bottom =
            static_cast<unsigned __int128>(static_cast<uint64_t>(low)) * d_;
        const unsigned __int128 top = (low >> 64) * d_ + (bottom >> 64);
        return static_cast<uint32_t>(top >> 64);
    }

  private:
    uint64_t d_;
    unsigned __int128 c_;
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
     * report a full set (MNU). Implements the Fig. 9 flow: the
     * one-row case of probeBlock.
     */
    McacheResult lookupOrInsert(const Signature &sig);

    /**
     * Probe rows [r0, r1) of `stream`, in order: each row's outcome and
     * entry id are lookupOrInsert's on its words, in its set (which
     * must be setIndexOf its words). With `owners`, each row's owner
     * (stream index r) is the table's rule over those outcomes, and the
     * forwarded rows are counted. The detection pipeline's entry point:
     * its hash tasks take each row's set index off the probing thread,
     * and the probe compares the hash job's packed words as they are,
     * one call per hashed block, with no branch on any row's outcome.
     */
    void probeBlock(McacheProbe &stream, int32_t r0, int32_t r1,
                    OwnerTable *owners);

    /**
     * Clear every tag: a new channel's vectors arrived. Costs the
     * lines installed since the last clear, not the whole cache: only
     * those can differ from a fresh line. Once more installs than
     * entries() have happened since the last clear (a persistent
     * cache), it walks every line instead.
     */
    void clear();

    /**
     * Set index of the signature with these packed words:
     * Signature::hashWords(bits, words) % sets(), by the cache's exact
     * reciprocal of sets().
     */
    int setIndexOf(int bits, const uint64_t *words) const
    {
        return static_cast<int>(setOf_(Signature::hashWords(bits, words)));
    }

    /**
     * setIndexOf of `rows` rows of packed words, wordsFor(bits) per
     * row from `words`, into sets[0 .. rows): a hash job's block, with
     * no call or division per row.
     */
    void setIndices(int bits, const uint64_t *words, int64_t rows,
                    int32_t *sets) const;

    /** Occupancy (valid tags) of one set. */
    int setOccupancy(int set) const;

    // ---- Lifecycle metadata (serving layer) -------------------------
    //
    // Every line carries a last-touch epoch (stamped on insert,
    // refreshed on HIT) and an owning tenant (stamped on insert).
    // Eviction sweeps remove valid lines by epoch age. No client holds
    // an entry id across a sweep: a probe resolves every owner inside
    // its pass, and replays read owners from their record, never from
    // the cache (see docs/ARCHITECTURE.md, "Serving layer").

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

    /**
     * Evict valid lines last touched before `min_epoch` (epoch-tag
     * aging: oldest lines go first as the floor rises). Returns the
     * number of lines evicted.
     */
    int64_t evictOlderThan(uint64_t min_epoch);

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
    /**
     * One line: its tag's first word and length next to the lifecycle
     * metadata an insert stamps and a HIT refreshes, so a probed row
     * writes one record. A line resets whole: one not valid holds no
     * tag.
     */
    struct Line
    {
        uint64_t word0 = 0; ///< first tag word
        uint64_t epoch = 0; ///< last-touch epoch (insert / HIT)
        int32_t bits = 0;   ///< tag length
        int tenant = -1;    ///< owning tenant (-1 = unowned)
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
    ExactRemainder setOf_; ///< hash % sets_
    /// Valid-way bitmap, maskWords_ words per set: bit w of word w / 64.
    std::vector<uint64_t> valid_;
    std::vector<Line> lines_; ///< every line, then the probe's sink line
    /// tagKey of each line's tag, the probe's compare, then padding so
    /// the last set's 16-way block reads inside the vector.
    std::vector<uint32_t> tagKeys_;
    /// Words past the first of tags longer than 64 bits, per line.
    std::vector<std::vector<uint64_t>> tagRest_;
    /// Lines installed since the last clear (insert or restore):
    /// [0, installedCount_), at most entries() of them, and room for
    /// the slot the probe writes unconditionally (reserveInstalled);
    /// every other line is as constructed.
    std::vector<Way> installed_;
    size_t installedCount_ = 0;
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
    Line &line(Way l);
    const Line &line(Way l) const;
    void install(int64_t entry_id, int bits, const uint64_t *words);
    /**
     * The 32-bit key the probe compares a set's ways by: equal tags
     * have equal keys, so a key match is a candidate the probe then
     * checks in full.
     */
    static uint32_t tagKey(int bits, uint64_t word0)
    {
        return static_cast<uint32_t>(word0) ^
               static_cast<uint32_t>(word0 >> 32) ^
               static_cast<uint32_t>(bits) * 0x9E3779B1u;
    }
    /** Invalidate a valid line, releasing its quota. */
    void dropLine(Way l);
    void noteInstalled(Way l);
    /** Room in the installed list for `rows` more installs. */
    void reserveInstalled(int64_t rows);
    /** Where a probe's row lands in its set. */
    struct Slot
    {
        int way;      ///< first matching way (when hit)
        int spare;    ///< lowest free way (when hasFree), else 0
        bool hit;
        bool hasFree;
    };

    /**
     * The Fig. 9 search as a plain walk over every valid way of `set`:
     * probeBlock's path for sets over 64 ways and tags over 64 bits.
     */
    Slot searchSet(int set, int bits, const uint64_t *words) const;
    void resetLine(Way l);
    int64_t *quotaCount(int tenant);
    void countQuotaLine(int tenant);
};

} // namespace mercury

#endif // MERCURY_CORE_MCACHE_HPP
