/**
 * @file
 * Serving-snapshot format tests: canonical round-trips across cache
 * organizations, the full-validate-then-move failure contract
 * (truncation / corruption / version bumps / a tenant quota the
 * section does not fit reject cleanly with no partial restore), and
 * SignatureRecord sections, including
 * hostile ones whose lengths, entry ids or mix lie; a seeded mutation
 * fuzzer over both section kinds; and golden bytes of a captured
 * cache and record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "pipeline/detection_frontend.hpp"
#include "serve/snapshot.hpp"
#include "workloads/synthetic.hpp"

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
populate(MCache &cache, int n, int bits)
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
bytesOf(const MCache &cache, uint64_t key)
{
    Snapshot snap;
    snap.addCache(key, cache);
    return snap.serialize();
}

// ---- Round-trips ----------------------------------------------------

class SnapshotOrgTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SnapshotOrgTest, SerializeRestoreSerializeIsByteIdentical)
{
    const auto [sets, ways, lines] = GetParam();
    MCache cache(sets, ways, /*data_versions=*/2);
    populate(cache, lines, /*bits=*/24);

    const std::vector<uint8_t> first = bytesOf(cache, 7);

    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(
        Snapshot::parse(first.data(), first.size(), parsed, error))
        << error;

    MCache restored(sets, ways, /*data_versions=*/2);
    ASSERT_TRUE(parsed.restoreCache(7, restored, error)) << error;

    EXPECT_EQ(bytesOf(restored, 7), first);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, SnapshotOrgTest,
    ::testing::Values(std::make_tuple(16, 2, 0),
                      std::make_tuple(16, 2, 12),
                      std::make_tuple(64, 8, 100),
                      std::make_tuple(128, 4, 300)));

TEST(Snapshot, RestoredCacheHitsTheOriginalTags)
{
    MCache cache(32, 4, 1);
    populate(cache, 40, 20);

    Snapshot snap;
    snap.addCache(1, cache);

    MCache restored(32, 4, 1);
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
    MCache cache(32, 4, 1);
    cache.setEpoch(3);
    (void)cache.lookupOrInsert(sigOf(1));
    cache.setEpoch(9);
    (void)cache.lookupOrInsert(sigOf(2));

    Snapshot snap;
    snap.addCache(1, cache);
    MCache restored(32, 4, 1);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    // Aging continues from the restored epochs.
    EXPECT_EQ(restored.evictOlderThan(9), 1);
    EXPECT_EQ(restored.lookupOrInsert(sigOf(2)).outcome,
              McacheOutcome::Hit);
}

TEST(Snapshot, RestoreRecountsTenantQuota)
{
    MCache cache(64, 8, 1);
    populate(cache, 30, 20); // tenants 0..2, ~10 lines each

    Snapshot snap;
    snap.addCache(1, cache);

    MCache restored(64, 8, 1);
    restored.setTenantQuota(64, /*max_tenants=*/8);
    std::string error;
    ASSERT_TRUE(snap.restoreCache(1, restored, error)) << error;

    int64_t total = 0;
    for (int t = 0; t < 3; ++t) {
        const int64_t held = cache.tenantEntries(t);
        EXPECT_EQ(restored.tenantReserved(t), held);
        total += held;
    }
    EXPECT_GT(total, 0);
}

/** A cache whose target-visible state a failed restore must keep. */
struct QuotaTarget
{
    MCache cache{16, 4, 1};
    McacheResult kept;

    QuotaTarget()
    {
        cache.setTenantQuota(2, /*max_tenants=*/8);
        cache.setInsertTenant(1);
        kept = cache.lookupOrInsert(sigOf(0xBEEF));
    }

    void expectUntouched() const
    {
        EXPECT_TRUE(cache.tagValid(kept.entryId));
        EXPECT_TRUE(cache.tagOf(kept.entryId) == sigOf(0xBEEF));
        EXPECT_EQ(cache.tenantReserved(1), 1);
        int64_t valid = 0;
        for (int64_t e = 0; e < cache.entries(); ++e)
            valid += cache.tagValid(e);
        EXPECT_EQ(valid, 1);
    }
};

/** A one-section snapshot of `lines` distinct tags of `tenant`. */
Snapshot
tenantSnapshot(int tenant, int lines)
{
    MCache cache(16, 4, 1);
    cache.setInsertTenant(tenant);
    for (int i = 0; i < lines; ++i)
        (void)cache.lookupOrInsert(sigOf(static_cast<uint64_t>(i) + 1));
    Snapshot snap;
    snap.addCache(1, cache);
    return snap;
}

TEST(Snapshot, SectionOverTheTenantQuotaIsRefused)
{
    // Five lines of tenant 1 into a quota of two: refused before the
    // target is cleared, so it keeps its line and its count.
    const Snapshot snap = tenantSnapshot(1, 5);
    QuotaTarget target;
    std::string error;
    EXPECT_FALSE(snap.restoreCache(1, target.cache, error));
    EXPECT_NE(error.find("quota"), std::string::npos) << error;
    EXPECT_NE(error.find("tenant 1"), std::string::npos) << error;
    target.expectUntouched();
}

TEST(Snapshot, TenantOutsideTheQuotaRangeIsRefused)
{
    // Tenant 100 against a quota over tenants 0..7; unowned lines
    // (tenant -1) stay outside the quota and restore.
    QuotaTarget target;
    std::string error;
    EXPECT_FALSE(
        tenantSnapshot(100, 1).restoreCache(1, target.cache, error));
    EXPECT_NE(error.find("100"), std::string::npos) << error;
    EXPECT_NE(error.find("0..7"), std::string::npos) << error;
    target.expectUntouched();

    EXPECT_TRUE(tenantSnapshot(-1, 5).restoreCache(1, target.cache, error))
        << error;
    EXPECT_EQ(target.cache.tenantReserved(1), 0);
}

TEST(Snapshot, MultipleSectionsAndLookup)
{
    MCache a(16, 2, 1);
    MCache b(32, 4, 1);
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
    MCache target(16, 2, 1);
    EXPECT_FALSE(snap.restoreCache(30, target, error));
    EXPECT_NE(error.find("30"), std::string::npos);
}

TEST(Snapshot, GeometryMismatchLeavesTargetUntouched)
{
    MCache cache(32, 4, 1);
    populate(cache, 10, 20);
    Snapshot snap;
    snap.addCache(1, cache);

    // The target has different geometry and pre-existing content; the
    // failed restore must not clear it.
    MCache target(16, 4, 1);
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
    MCache cache(32, 4, 2);
    populate(cache, 25, 20);
    const auto bytes = bytesOf(cache, 5);

    for (size_t len = 0; len < bytes.size(); ++len) {
        Snapshot out;
        // Pre-load `out` with a sentinel section: a failed parse must
        // leave it untouched, not half-replaced.
        MCache sentinel(16, 2, 1);
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
    MCache cache(32, 4, 1);
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
    MCache cache(16, 2, 1);
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
    MCache cache(16, 2, 1);
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
    MCache cache(16, 2, 1);
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
        // The wire format carries no owner map: restore derives it.
        EXPECT_EQ(b.owners, a.owners);
        EXPECT_EQ(b.forwarded, a.forwarded);
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

TEST(Snapshot, HostileCacheGeometryIsRejectedBeforeItsProduct)
{
    // sets = ways = 2^32 - 1: their product does not fit an int64_t,
    // so the parser must refuse the fields before multiplying them.
    MCache cache(16, 4, 2);
    populate(cache, 3, 20);
    auto bytes = bytesOf(cache, 9);
    patch(bytes, 12, uint32_t{0xFFFFFFFFu});
    patch(bytes, 16, uint32_t{0xFFFFFFFFu});
    expectRejected(bytes, "non-positive cache geometry");
}

TEST(Snapshot, NonCanonicalInputIsRejected)
{
    // Reserved header flags are written as 0.
    MCache cache(16, 4, 2);
    populate(cache, 3, 20);
    auto bytes = bytesOf(cache, 9);
    bytes[12] = 1;
    expectRejected(bytes, "flags");

    // A 20-bit tag whose word sets bit 20.
    bytes = bytesOf(cache, 9);
    const size_t line0_word = 4 + 8 + 4 + 4 + 4 + 8 + 8 + 4;
    patch(bytes, line0_word + 2, uint8_t{0x10});
    expectRejected(bytes, "bits past its length");

    // The same in a record pass's words.
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    bytes = recordBytes();
    patch(bytes, l.wordCount + 8 + 3, uint8_t{0x80});
    expectRejected(bytes, "bits past its length");

    // A cache of another data-version count is refused on restore.
    Snapshot snap;
    snap.addCache(9, cache);
    MCache other(16, 4, 3);
    std::string error;
    EXPECT_FALSE(snap.restoreCache(9, other, error));
    EXPECT_NE(error.find("16x4x2"), std::string::npos) << error;
}

// ---- Seeded mutation fuzzer ------------------------------------------
//
// Every case mutates a valid snapshot holding a cache section and a
// record section and re-seals the checksum. parse() must then either
// fail with an error, or the snapshot must restore into targets of the
// original organization and serialize back to exactly the mutated
// bytes. No case may crash or trip a sanitizer (the CI's ASan+UBSan
// job runs this suite).

constexpr int kFuzzSets = 16;
constexpr int kFuzzWays = 4;
constexpr int kFuzzVersions = 2;
constexpr int kFuzzLines = 12;

/** One count, length or geometry field: payload offset and width. */
struct Field
{
    size_t at;
    size_t bytes;
};

std::vector<uint8_t>
fuzzSeedBytes()
{
    MCache cache(kFuzzSets, kFuzzWays, kFuzzVersions);
    populate(cache, kFuzzLines, 20);
    Snapshot snap;
    snap.addCache(1, cache);
    snap.addRecord(2, makeRecord());
    return snap.serialize();
}

std::vector<Field>
fuzzFields()
{
    // The cache section: count, key, sets, ways, versions, line count,
    // then 32-byte lines (entry id, bits, one word, epoch, tenant).
    std::vector<Field> f = {{0, 4}, {12, 4}, {16, 4}, {20, 4}, {24, 8}};
    for (size_t i = 0; i < 2; ++i) {
        f.push_back({32 + i * 32, 8});
        f.push_back({32 + i * 32 + 8, 4});
    }
    // The record section sits where pass0Layout's record-only payload
    // would, shifted by the cache section.
    const size_t shift = 28 + kFuzzLines * 32;
    const size_t rec = 32 + kFuzzLines * 32;
    f.insert(f.end(), {{rec, 4}, {rec + 12, 4}, {rec + 16, 8},
                       {rec + 24, 4}});
    const PassLayout l = pass0Layout(makeRecord().pass(0));
    f.insert(f.end(),
             {{shift + l.rows, 8}, {shift + l.bits, 4},
              {shift + l.wordsPerRow, 4}, {shift + l.wordCount, 8},
              {shift + l.ids - 8, 8}, {shift + l.mix - 3 - 8, 8},
              {shift + l.mix, 8}, {shift + l.mix + 8, 8}});
    return f;
}

/** A value worth writing into a field of `bytes` bytes. */
uint64_t
fuzzValue(std::mt19937_64 &rng, size_t bytes, uint64_t orig)
{
    const uint64_t top = bytes == 8 ? ~uint64_t{0} : 0xFFFFFFFFull;
    const uint64_t pool[] = {0,
                             1,
                             2,
                             3,
                             64,
                             65,
                             orig + 1,
                             orig - 1,
                             0x7FFFFFFFull,
                             0x80000000ull,
                             top - 1,
                             top,
                             uint64_t{1} << 40,
                             uint64_t{1} << 62,
                             rng()};
    return pool[rng() % (sizeof pool / sizeof pool[0])] & top;
}

/** Write the low `bytes` bytes of v at payload offset `at`, if it fits. */
void
put(std::vector<uint8_t> &bytes, size_t at, size_t width, uint64_t v)
{
    if (kHeaderBytes + at + width <= bytes.size())
        std::memcpy(bytes.data() + kHeaderBytes + at, &v, width);
}

uint64_t
get(const std::vector<uint8_t> &bytes, size_t at, size_t width)
{
    uint64_t v = 0;
    if (kHeaderBytes + at + width <= bytes.size())
        std::memcpy(&v, bytes.data() + kHeaderBytes + at, width);
    return v;
}

/** Seal the (possibly truncated) payload's checksum into the header. */
void
reseal(std::vector<uint8_t> &bytes)
{
    if (bytes.size() < kHeaderBytes)
        return;
    const uint64_t sum =
        fnv1a(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
    std::memcpy(bytes.data() + kChecksumAt, &sum, sizeof sum);
}

TEST(SnapshotFuzz, MutationsFailCleanlyOrRoundTrip)
{
    const std::vector<uint8_t> seed = fuzzSeedBytes();
    const std::vector<Field> fields = fuzzFields();
    std::mt19937_64 rng(0x5EEDF022);
    int rejected = 0, refused = 0, accepted = 0;
    std::vector<int> mismatched;
    for (int c = 0; c < 6000; ++c) {
        std::vector<uint8_t> m = seed;
        switch (rng() % 4) {
          case 0: // flip 1-8 bits anywhere, header included
            for (int k = 1 + static_cast<int>(rng() % 8); k > 0; --k) {
                const size_t bit = rng() % (m.size() * 8);
                m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            }
            break;
          case 1: // overwrite 1-3 count, length or geometry fields
            for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
                const Field &f = fields[rng() % fields.size()];
                put(m, f.at, f.bytes,
                    fuzzValue(rng, f.bytes, get(m, f.at, f.bytes)));
            }
            break;
          case 2: // the cache geometry together
            for (size_t at : {12, 16, 20})
                if (rng() % 4 != 0)
                    put(m, at, 4, fuzzValue(rng, 4, get(m, at, 4)));
            break;
          default: // truncate, half the time declaring the new length
            m.resize(rng() % m.size());
            if (m.size() >= kHeaderBytes && rng() % 2) {
                const uint64_t len = m.size() - kHeaderBytes;
                std::memcpy(m.data() + 16, &len, sizeof len);
            }
            break;
        }
        reseal(m);

        Snapshot parsed;
        std::string error;
        if (!Snapshot::parse(m.data(), m.size(), parsed, error)) {
            ASSERT_FALSE(error.empty()) << "fuzz case " << c;
            ++rejected;
            continue;
        }
        Snapshot back;
        bool restored = true;
        for (const auto &sec : parsed.caches()) {
            MCache target(kFuzzSets, kFuzzWays, kFuzzVersions);
            restored = restored && parsed.restoreCache(sec.key, target, error);
            if (restored)
                back.addCache(sec.key, target);
        }
        for (const auto &sec : parsed.records()) {
            SignatureRecord target;
            restored = restored &&
                       parsed.restoreRecord(sec.key, kFuzzSets * kFuzzWays,
                                            kFuzzVersions, target, error);
            if (restored)
                back.addRecord(sec.key, target);
        }
        if (!restored) {
            ASSERT_FALSE(error.empty()) << "fuzz case " << c;
            ++refused;
            continue;
        }
        // A snapshot that parses and restores must serialize back to
        // its own bytes. Mismatches are counted, not fatal, so one
        // finding does not hide the cases after it.
        if (back.serialize() != m) {
            if (mismatched.size() < 8)
                mismatched.push_back(c);
            continue;
        }
        ++accepted;
    }
    std::string cases;
    for (const int c : mismatched)
        cases += " " + std::to_string(c);
    EXPECT_TRUE(mismatched.empty())
        << "cases that restore to other bytes (first 8):" << cases;
    // Every outcome occurs, so the fuzzer exercises each path.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(refused, 0);
    EXPECT_GT(accepted, 0);
}

// ---- Golden bytes -----------------------------------------------------

TEST(SnapshotGolden, CapturedCacheAndRecordBytesAreStable)
{
    // A persistent cache and a record built through a capturing
    // frontend: three passes at two epochs and tenants. The FNV-1a of
    // the serialized bytes was recorded before the detection path
    // moved to packed words; any change in tags, outcomes, entry ids,
    // words or metadata moves it.
    const struct
    {
        int bits;
        uint64_t fnv;
    } golden[] = {{28, 0xb7402c09d6cf14a2ull}, {100, 0xdc17a094a51b5893ull}};
    for (const auto &g : golden) {
        PipelineConfig pipe;
        pipe.blockRows = 32;
        pipe.threads = 1;
        pipe.persistent = true;
        DetectionFrontend fe(48, 4, 2, 128, 0x5EED, pipe);
        SignatureRecord record;
        for (int p = 0; p < 3; ++p) {
            fe.cache().setEpoch(static_cast<uint64_t>(10 + p));
            fe.cache().setInsertTenant(p % 2);
            const Tensor rows = prototypeVectors(
                160, 9, 40, 0.01f, 700 + static_cast<uint64_t>(p), 1.1);
            record.append(fe.detect(rows, g.bits), fe.dataVersions(),
                          fe.entries());
        }
        EXPECT_GT(record.pass(2).mix.hit, 0);
        Snapshot snap;
        snap.addCache(1, fe.cache());
        snap.addRecord(2, record);
        const std::vector<uint8_t> bytes = snap.serialize();
        EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), g.fnv)
            << g.bits << "-bit snapshot bytes moved";
    }
}

// ---- File I/O -------------------------------------------------------

TEST(Snapshot, FileRoundTrip)
{
    MCache cache(32, 4, 1);
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
