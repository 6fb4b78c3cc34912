/**
 * @file
 * Warm-start / shutdown snapshots of the serving layer's persistent
 * MCACHE state (and optionally captured SignatureRecords).
 *
 * A snapshot holds any number of keyed cache sections (key = the
 * server's (tenant, layer) encoding, or a layer id for standalone
 * contexts) plus keyed record sections. Only the tag plane and its
 * lifecycle metadata (epoch, tenant) are serialized — result
 * forwarding is pass-local in every engine (per-pass owner maps), so a
 * restored cache warm-starts the *detection* outcomes, which is all
 * that persists across requests anyway.
 *
 * Wire format, versioned and checksummed:
 *
 *   header:  8-byte magic "MCRYSNAP", u32 version, u32 flags,
 *            u64 payload byte count, u64 FNV-1a-64 payload checksum
 *   payload: u32 cacheCount, then per cache
 *              u64 key, u32 sets, u32 ways, u32 dataVersions,
 *              u64 lineCount, then per valid line in ascending global
 *              entry-id order:
 *                u64 entryId, u32 bits, packed signature words
 *                (wordsFor(bits) u64s), u64 epoch, i32 tenant
 *            u32 recordCount, then per record
 *              u64 key, u32 dataVersions, u64 entries, u32 passCount,
 *              then per pass: u64 rows, u32 bits, u32 sigWordsPerRow,
 *              sigWords/entryIds/outcomes arrays (u64-count-prefixed),
 *              HitMix as 4 i64s
 *
 * Because lines are addressed by *global* entry id, a snapshot taken
 * from an N-shard cache restores bit-identically into an M-shard
 * cache of the same sets x ways geometry — shard count is a
 * throughput knob, not part of the persistent state. Serialization is
 * canonical (ascending ids, no padding), so serialize -> restore ->
 * serialize is byte-identical.
 *
 * Failure contract: parse() fully validates (magic, version, reserved
 * flags, bounds, checksum, array sanity, canonical signature words)
 * into a temporary and only then moves the
 * result out — a truncated, corrupted, or version-bumped snapshot is
 * rejected with a descriptive error and the output is untouched.
 * restoreCache() and restoreRecord() likewise validate the target's
 * organization before touching it, so a failed restore never leaves a
 * half-restored cache or record.
 */

#ifndef MERCURY_SERVE_SNAPSHOT_HPP
#define MERCURY_SERVE_SNAPSHOT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/sharded_mcache.hpp"
#include "pipeline/signature_record.hpp"

namespace mercury {

/** Snapshot format version; bump on any wire-format change. */
constexpr uint32_t kSnapshotVersion = 1;

/** In-memory form of a serialized serving-state snapshot. */
class Snapshot
{
  public:
    /** One valid MCACHE line: tag + lifecycle metadata. */
    struct CacheLine
    {
        int64_t entryId = -1;
        Signature sig;
        uint64_t epoch = 0;
        int tenant = -1;
    };

    /** The tag plane of one cache, keyed by the owner's id scheme. */
    struct CacheSection
    {
        uint64_t key = 0;
        int sets = 0;
        int ways = 0;
        int dataVersions = 0;
        std::vector<CacheLine> lines; ///< ascending entryId
    };

    /** One captured SignatureRecord. */
    struct RecordSection
    {
        uint64_t key = 0;
        int dataVersions = 0;
        int64_t entries = 0;
        std::vector<SignatureRecord::Pass> passes;
    };

    /** Capture a cache's valid tags into a new keyed section.
     *  Quiescent only. Panics on a duplicate key. */
    void addCache(uint64_t key, const ShardedMCache &cache);

    /** Capture a record into a new keyed section. */
    void addRecord(uint64_t key, const SignatureRecord &record);

    /** Section lookup; nullptr when the key is absent. */
    const CacheSection *findCache(uint64_t key) const;
    const RecordSection *findRecord(uint64_t key) const;

    const std::vector<CacheSection> &caches() const { return caches_; }
    const std::vector<RecordSection> &records() const
    {
        return records_;
    }

    /**
     * Restore a keyed section into `cache`: validates the key exists
     * and the organization (sets x ways x data versions) matches, so
     * the cache snapshots back to the same bytes, then clears the
     * target, installs every line, and recounts tenant-quota
     * reservations. Shard counts may differ (global entry ids).
     * Returns false with `error` set — and the target untouched — when
     * the key is missing or the organization differs.
     */
    bool restoreCache(uint64_t key, ShardedMCache &cache,
                      std::string &error) const;

    /**
     * Restore a keyed record section for replay against an MCACHE of
     * `entries` entries and `dataVersions` data versions (e.g. the
     * target ShardedMCache's). Returns false with `error` set — and
     * the record untouched — when the key is missing or the section
     * was captured against a different organization: its entry count
     * sizes the replay's owner table, and a record of another cache
     * cannot replay correctly anyway.
     */
    bool restoreRecord(uint64_t key, int64_t entries, int dataVersions,
                       SignatureRecord &record, std::string &error) const;

    /** Canonical serialized form (header + checksummed payload). */
    std::vector<uint8_t> serialize() const;

    /**
     * Parse a serialized snapshot. On success replaces `out` and
     * returns true; on any validation failure returns false with a
     * descriptive `error` and `out` untouched (no partial parse).
     */
    static bool parse(const uint8_t *data, size_t size, Snapshot &out,
                      std::string &error);

    /** serialize() to a file; false + error on I/O failure. */
    bool writeFile(const std::string &path, std::string &error) const;

    /** Read + parse a snapshot file; false + error on failure. */
    static bool readFile(const std::string &path, Snapshot &out,
                         std::string &error);

  private:
    std::vector<CacheSection> caches_;
    std::vector<RecordSection> records_;
};

} // namespace mercury

#endif // MERCURY_SERVE_SNAPSHOT_HPP
