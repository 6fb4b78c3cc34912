/**
 * @file
 * Serving-snapshot format tests: canonical round-trips across cache
 * organizations and shard counts, the full-validate-then-move failure
 * contract (truncation / corruption / version bumps reject cleanly
 * with no partial restore), and SignatureRecord sections, including
 * hostile ones whose lengths, entry ids or mix lie.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "serve/snapshot.hpp"

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

/** Fill a cache with `n` distinct tags across epochs and tenants. */
void
populate(ShardedMCache &cache, int n, int bits)
{
    for (int i = 0; i < n; ++i) {
        cache.setEpoch(static_cast<uint64_t>(1 + i % 5));
        cache.setInsertTenant(i % 3);
        (void)cache.lookupOrInsert(
            sigOf(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1,
                  bits));
    }
}

/** Serialized bytes of a cache's tag plane under one key. */
std::vector<uint8_t>
bytesOf(const ShardedMCache &cache, uint64_t key)
{
    Snapshot snap;
    snap.addCache(key, cache);
    return snap.serialize();
}

// ---- Round-trips ----------------------------------------------------

class SnapshotOrgTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(SnapshotOrgTest, SerializeRestoreSerializeIsByteIdentical)
{
    const auto [sets, ways, shards, lines] = GetParam();
    ShardedMCache cache(sets, ways, /*data_versions=*/2, shards);
    populate(cache, lines, /*bits=*/24);

    const std::vector<uint8_t> first = bytesOf(cache, 7);

    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(first.data(), first.size(), parsed, error))
        << error;

    // Restore into a fresh cache with a DIFFERENT shard count: global
    // entry ids make shard count a throughput knob, not state.
    ShardedMCache restored(sets, ways, /*data_versions=*/2,
                           shards == 1 ? 4 : 1);
    ASSERT_TRUE(parsed.restoreCache(7, restored, error)) << error;

    EXPECT_EQ(bytesOf(restored, 7), first);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, SnapshotOrgTest,
    ::testing::Values(std::make_tuple(16, 2, 1, 0),
                      std::make_tuple(16, 2, 1, 12),
                      std::make_tuple(64, 8, 4, 100),
                      std::make_tuple(128, 4, 8, 300)));

TEST(Snapshot, RestoredCacheHitsTheOriginalTags)
{
    ShardedMCache cache(32, 4, 1, 2);
    populate(cache, 40, 20);

    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache restored(32, 4, 1, 3);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    // Every tag probes to a HIT with the original global entry id and
    // keeps its lifecycle metadata.
    for (int i = 0; i < 40; ++i) {
        const Signature s = sigOf(
            static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull + 1, 20);
        const auto orig = cache.lookupOrInsert(s);
        ASSERT_EQ(orig.outcome, McacheOutcome::Hit);
        const auto got = restored.lookupOrInsert(s);
        EXPECT_EQ(got.outcome, McacheOutcome::Hit);
        EXPECT_EQ(got.entryId, orig.entryId);
        EXPECT_EQ(restored.entryTenant(got.entryId),
                  cache.entryTenant(orig.entryId));
    }
}

TEST(Snapshot, RestorePreservesEpochsForEviction)
{
    ShardedMCache cache(32, 4, 1, 1);
    cache.setEpoch(3);
    (void)cache.lookupOrInsert(sigOf(1));
    cache.setEpoch(9);
    (void)cache.lookupOrInsert(sigOf(2));

    Snapshot snap;
    snap.addCache(1, cache);
    ShardedMCache restored(32, 4, 1, 1);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    // Aging continues from the restored epochs.
    EXPECT_EQ(restored.evictOlderThan(9), 1);
    EXPECT_EQ(restored.lookupOrInsert(sigOf(2)).outcome,
              McacheOutcome::Hit);
}

TEST(Snapshot, RestoreRecountsTenantQuota)
{
    ShardedMCache cache(64, 8, 1, 2);
    populate(cache, 30, 20); // tenants 0..2, ~10 lines each

    Snapshot snap;
    snap.addCache(1, cache);

    ShardedMCache restored(64, 8, 1, 2);
    restored.setTenantQuota(64, /*max_tenants=*/8);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    int64_t total = 0;
    for (int t = 0; t < 3; ++t) {
        int64_t held = 0;
        for (int s = 0; s < cache.shardCount(); ++s)
            held += cache.shard(s).tenantEntries(t);
        EXPECT_EQ(restored.tenantReserved(t), held);
        total += held;
    }
    EXPECT_GT(total, 0);
}

TEST(Snapshot, MultipleSectionsAndLookup)
{
    ShardedMCache a(16, 2, 1, 1);
    ShardedMCache b(32, 4, 1, 2);
    populate(a, 5, 20);
    populate(b, 9, 20);

    Snapshot snap;
    snap.addCache(10, a);
    snap.addCache(20, b);
    ASSERT_NE(snap.findCache(10), nullptr);
    ASSERT_NE(snap.findCache(20), nullptr);
    EXPECT_EQ(snap.findCache(30), nullptr);
    EXPECT_EQ(snap.findCache(10)->sets, 16);
    EXPECT_EQ(snap.findCache(20)->sets, 32);

    std::string error;
    ShardedMCache target(16, 2, 1, 1);
    EXPECT_FALSE(snap.restoreCache(30, target, error));
    EXPECT_NE(error.find("30"), std::string::npos);
}

TEST(Snapshot, GeometryMismatchLeavesTargetUntouched)
{
    ShardedMCache cache(32, 4, 1, 1);
    populate(cache, 10, 20);
    Snapshot snap;
    snap.addCache(1, cache);

    // The target has different geometry and pre-existing content; the
    // failed restore must not clear it.
    ShardedMCache target(16, 4, 1, 1);
    const auto kept = target.lookupOrInsert(sigOf(0xBEEF));
    std::string error;
    EXPECT_FALSE(snap.restoreCache(1, target, error));
    EXPECT_NE(error.find("geometry"), std::string::npos) << error;
    EXPECT_EQ(target.lookupOrInsert(sigOf(0xBEEF)).outcome,
              McacheOutcome::Hit);
    EXPECT_EQ(target.lookupOrInsert(sigOf(0xBEEF)).entryId,
              kept.entryId);
}

TEST(Snapshot, EmptySnapshotRoundTrips)
{
    Snapshot snap;
    const auto bytes = snap.serialize();
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    EXPECT_TRUE(parsed.caches().empty());
    EXPECT_TRUE(parsed.records().empty());
    EXPECT_EQ(parsed.serialize(), bytes);
}

// ---- Failure contract ----------------------------------------------

TEST(Snapshot, EveryTruncationIsRejectedWithoutPartialParse)
{
    ShardedMCache cache(32, 4, 2, 2);
    populate(cache, 25, 20);
    const auto bytes = bytesOf(cache, 5);

    for (size_t len = 0; len < bytes.size(); ++len) {
        Snapshot out;
        // Pre-load `out` with a sentinel section: a failed parse must
        // leave it untouched, not half-replaced.
        ShardedMCache sentinel(16, 2, 1, 1);
        out.addCache(99, sentinel);

        std::string error;
        EXPECT_FALSE(Snapshot::parse(bytes.data(), len, out, error))
            << "parse accepted a " << len << "-byte truncation of a "
            << bytes.size() << "-byte snapshot";
        EXPECT_FALSE(error.empty());
        ASSERT_EQ(out.caches().size(), 1u);
        EXPECT_EQ(out.caches()[0].key, 99u);
    }
}

TEST(Snapshot, CorruptedPayloadFailsTheChecksum)
{
    ShardedMCache cache(32, 4, 1, 1);
    populate(cache, 20, 20);
    auto bytes = bytesOf(cache, 5);

    // Flip one bit somewhere in the payload (past the 32-byte header).
    ASSERT_GT(bytes.size(), 40u);
    bytes[40] ^= 0x10;

    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

TEST(Snapshot, WrongMagicIsRejected)
{
    ShardedMCache cache(16, 2, 1, 1);
    auto bytes = bytesOf(cache, 5);
    bytes[0] = 'X';
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, VersionBumpFailsLoudly)
{
    ShardedMCache cache(16, 2, 1, 1);
    populate(cache, 4, 20);
    auto bytes = bytesOf(cache, 5);

    // The u32 version sits right after the 8-byte magic.
    const uint32_t bumped = kSnapshotVersion + 1;
    bytes[8] = static_cast<uint8_t>(bumped & 0xFF);
    bytes[9] = static_cast<uint8_t>((bumped >> 8) & 0xFF);

    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    // The error names both the found and the supported version.
    EXPECT_NE(error.find(std::to_string(bumped)), std::string::npos)
        << error;
    EXPECT_NE(error.find(std::to_string(kSnapshotVersion)),
              std::string::npos)
        << error;
}

TEST(Snapshot, TrailingGarbageIsRejected)
{
    ShardedMCache cache(16, 2, 1, 1);
    populate(cache, 4, 20);
    auto bytes = bytesOf(cache, 5);
    bytes.push_back(0xAB);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(
        Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_FALSE(error.empty());
}

// ---- Record sections ------------------------------------------------

SignatureRecord
makeRecord()
{
    // Two hand-built passes over a 64-entry, 2-version organization.
    std::vector<SignatureRecord::Pass> passes;
    for (int p = 0; p < 2; ++p) {
        SignatureRecord::Pass pass;
        pass.rows = 3;
        pass.bits = 20;
        pass.sigWordsPerRow = 1;
        for (int64_t r = 0; r < pass.rows; ++r) {
            pass.sigWords.push_back(
                0x12345u + static_cast<uint64_t>(p * 10 + r));
            pass.entryIds.push_back(r == 2 ? -1 : static_cast<int32_t>(
                                                      p * 8 + r));
            pass.outcomes.push_back(static_cast<uint8_t>(
                r == 2 ? McacheOutcome::Mnu
                       : (r == 0 ? McacheOutcome::Hit
                                 : McacheOutcome::Mau)));
        }
        pass.mix.vectors = 3;
        pass.mix.hit = 1;
        pass.mix.mau = 1;
        pass.mix.mnu = 1;
        passes.push_back(std::move(pass));
    }
    SignatureRecord rec;
    rec.restore(std::move(passes), /*data_versions=*/2, /*entries=*/64);
    return rec;
}

TEST(Snapshot, RecordSectionRoundTrips)
{
    const SignatureRecord rec = makeRecord();
    Snapshot snap;
    snap.addRecord(77, rec);

    const auto bytes = snap.serialize();
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    EXPECT_EQ(parsed.serialize(), bytes);

    SignatureRecord back;
    ASSERT_TRUE(parsed.restoreRecord(77, rec.entries(), rec.dataVersions(),
                                     back, error))
        << error;
    ASSERT_EQ(back.passCount(), rec.passCount());
    EXPECT_EQ(back.dataVersions(), rec.dataVersions());
    EXPECT_EQ(back.entries(), rec.entries());
    for (int64_t p = 0; p < rec.passCount(); ++p) {
        const auto &a = rec.pass(p);
        const auto &b = back.pass(p);
        EXPECT_EQ(b.rows, a.rows);
        EXPECT_EQ(b.bits, a.bits);
        EXPECT_EQ(b.sigWords, a.sigWords);
        EXPECT_EQ(b.entryIds, a.entryIds);
        EXPECT_EQ(b.outcomes, a.outcomes);
        EXPECT_EQ(b.mix.vectors, a.mix.vectors);
        EXPECT_EQ(b.mix.hit, a.mix.hit);
        EXPECT_EQ(b.mix.mau, a.mix.mau);
        EXPECT_EQ(b.mix.mnu, a.mix.mnu);
    }

    SignatureRecord missing;
    EXPECT_FALSE(parsed.restoreRecord(78, rec.entries(),
                                      rec.dataVersions(), missing, error));
}

// ---- Hostile record sections ----------------------------------------
//
// Each case serializes makeRecord(), patches one field of pass 0 and
// re-seals the checksum, so the only thing wrong is the patched field.

/** FNV-1a 64, the snapshot header's payload checksum. */
uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr size_t kHeaderBytes = 32; // magic, version, flags, length, sum
constexpr size_t kChecksumAt = 24;

/** Payload offsets of pass 0's fields in a record-only snapshot. */
struct PassLayout
{
    size_t rows, bits, wordsPerRow, wordCount, ids, mix;
};

PassLayout
pass0Layout(const SignatureRecord::Pass &p)
{
    PassLayout l;
    // cache count, record count, key, versions, entries, pass count
    l.rows = 4 + 4 + 8 + 4 + 8 + 4;
    l.bits = l.rows + 8;
    l.wordsPerRow = l.bits + 4;
    l.wordCount = l.wordsPerRow + 4;
    l.ids = l.wordCount + 8 + p.sigWords.size() * 8 + 8;
    const size_t outcomes = l.ids + p.entryIds.size() * 4 + 8;
    l.mix = outcomes + p.outcomes.size();
    return l;
}

/** Overwrite one field at payload offset `at` and re-seal. */
template <typename T>
void
patch(std::vector<uint8_t> &bytes, size_t at, T value)
{
    std::memcpy(bytes.data() + kHeaderBytes + at, &value, sizeof value);
    const uint64_t sum =
        fnv1a(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
    std::memcpy(bytes.data() + kChecksumAt, &sum, sizeof sum);
}

/** parse() must fail cleanly, with an error naming `what`. */
void
expectRejected(const std::vector<uint8_t> &bytes, const char *what)
{
    Snapshot out;
    std::string error;
    EXPECT_FALSE(Snapshot::parse(bytes.data(), bytes.size(), out, error));
    EXPECT_NE(error.find(what), std::string::npos) << error;
}

std::vector<uint8_t>
recordBytes()
{
    Snapshot snap;
    snap.addRecord(77, makeRecord());
    return snap.serialize();
}

TEST(Snapshot, HugeRecordRowsAreRejectedBeforeAllocating)
{
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    auto bytes = recordBytes();
    // 2^40 rows with a matching sig-word count: both lie about the
    // bytes that follow.
    patch(bytes, l.rows, uint64_t{1} << 40);
    patch(bytes, l.wordCount, uint64_t{1} << 40);
    expectRejected(bytes, "exceeds the bytes left");
}

TEST(Snapshot, WrappingRowsTimesWordsIsRejected)
{
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    auto bytes = recordBytes();
    // 200-bit signatures take 4 words a row; 2^62 rows x 4 words wraps
    // to the sig-word count 0.
    patch(bytes, l.bits, uint32_t{200});
    patch(bytes, l.wordsPerRow, uint32_t{4});
    patch(bytes, l.rows, uint64_t{1} << 62);
    patch(bytes, l.wordCount, uint64_t{0});
    expectRejected(bytes, "overflows");
}

TEST(Snapshot, RecordOfAnotherCacheOrganizationIsRefused)
{
    // An entry count of 2^40 parses (every entry id is in range), but
    // restoring it for a 64-entry cache is refused before the record's
    // owner table could ever be sized from it.
    auto bytes = recordBytes();
    patch(bytes, 4 + 4 + 8 + 4, uint64_t{1} << 40);
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    const SignatureRecord rec = makeRecord();
    SignatureRecord target = makeRecord();
    EXPECT_FALSE(parsed.restoreRecord(77, rec.entries(), rec.dataVersions(),
                                      target, error));
    EXPECT_NE(error.find("1099511627776 entries"), std::string::npos)
        << error;
    EXPECT_NE(error.find("does not match target 64 entries"),
              std::string::npos)
        << error;
    EXPECT_EQ(target.entries(), rec.entries()) << "target was touched";
    EXPECT_EQ(target.passCount(), rec.passCount());

    // A data-version mismatch is refused the same way.
    bytes = recordBytes();
    ASSERT_TRUE(Snapshot::parse(bytes.data(), bytes.size(), parsed, error))
        << error;
    EXPECT_FALSE(parsed.restoreRecord(77, rec.entries(), 4, target, error));
    EXPECT_NE(error.find("2 versions does not match"), std::string::npos)
        << error;
}

TEST(Snapshot, OutOfRangeMauEntryIdIsRejected)
{
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    auto bytes = recordBytes();
    // Row 1 is a MAU row of a 64-entry record.
    patch(bytes, l.ids + 1 * 4, int32_t{1 << 20});
    expectRejected(bytes, "entry id out of range");
    patch(bytes, l.ids + 1 * 4, int32_t{-1});
    expectRejected(bytes, "entry id out of range");
}

TEST(Snapshot, MnuRowWithAnEntryIdIsRejected)
{
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    auto bytes = recordBytes();
    // Row 2 is an MNU row: it names no entry.
    patch(bytes, l.ids + 2 * 4, int32_t{5});
    expectRejected(bytes, "entry id out of range");
}

TEST(Snapshot, InconsistentRecordMixIsRejected)
{
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    // hit + mau + mnu != vectors.
    auto bytes = recordBytes();
    patch(bytes, l.mix + 8, int64_t{2});
    expectRejected(bytes, "mix inconsistent");
    // Consistent, but counts a different population than the rows.
    bytes = recordBytes();
    patch(bytes, l.mix, int64_t{4});
    patch(bytes, l.mix + 8, int64_t{2});
    expectRejected(bytes, "mix inconsistent");
}

// ---- File I/O -------------------------------------------------------

TEST(Snapshot, FileRoundTrip)
{
    ShardedMCache cache(32, 4, 1, 2);
    populate(cache, 15, 20);
    Snapshot snap;
    snap.addCache(3, cache);
    snap.addRecord(4, makeRecord());

    const std::string path = ::testing::TempDir() + "snap_test.mcry";
    std::string error;
    ASSERT_TRUE(snap.writeFile(path, error)) << error;

    Snapshot back;
    ASSERT_TRUE(Snapshot::readFile(path, back, error)) << error;
    EXPECT_EQ(back.serialize(), snap.serialize());
    std::remove(path.c_str());

    EXPECT_FALSE(Snapshot::readFile(path + ".missing", back, error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace mercury
