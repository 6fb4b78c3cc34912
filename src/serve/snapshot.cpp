#include "serve/snapshot.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/logging.hpp"

namespace mercury {

namespace {

constexpr char kMagic[8] = {'M', 'C', 'R', 'Y', 'S', 'N', 'A', 'P'};

/// Plausibility bound on a stored signature length: far above any
/// MCACHE tag, far below a word count that could exhaust memory.
constexpr uint32_t kMaxSignatureBits = 1u << 20;

uint64_t
fnv1a64(const uint8_t *data, size_t size)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * True when the last of a signature's packed words keeps the bits past
 * `bits` zero, as every serialized signature does. A snapshot that sets
 * them would restore to different bytes, so parse refuses it.
 */
bool
canonicalWords(uint32_t bits, const uint64_t *words)
{
    const uint32_t used = bits % 64;
    return used == 0 ||
           (words[Signature::wordsFor(static_cast<int>(bits)) - 1] >>
            used) == 0;
}

/** Append-only byte writer for the canonical payload encoding. */
struct Writer
{
    std::vector<uint8_t> bytes;

    void raw(const void *p, size_t n)
    {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        bytes.insert(bytes.end(), b, b + n);
    }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void i32(int32_t v) { raw(&v, sizeof v); }
    void i64(int64_t v) { raw(&v, sizeof v); }
};

/** Bounds-checked cursor over a parsed payload. */
struct Reader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    std::string *error;

    bool fail(const std::string &what)
    {
        *error = "snapshot payload truncated or corrupt: " + what;
        return false;
    }
    bool raw(void *p, size_t n, const char *what)
    {
        if (size - pos < n)
            return fail(what);
        std::memcpy(p, data + pos, n);
        pos += n;
        return true;
    }
    bool u32(uint32_t &v, const char *what)
    {
        return raw(&v, sizeof v, what);
    }
    bool u64(uint64_t &v, const char *what)
    {
        return raw(&v, sizeof v, what);
    }
    bool i32(int32_t &v, const char *what)
    {
        return raw(&v, sizeof v, what);
    }
    bool i64(int64_t &v, const char *what)
    {
        return raw(&v, sizeof v, what);
    }
    /**
     * Read an element count and reject it unless that many
     * `elem_bytes`-sized elements still fit in the payload: a lying
     * length field fails here, before anything is sized from it.
     */
    bool count(uint64_t &n, size_t elem_bytes, const char *what)
    {
        if (!u64(n, what))
            return false;
        if (n > (size - pos) / elem_bytes)
            return fail(std::string(what) + " exceeds the bytes left");
        return true;
    }
};

} // namespace

void
Snapshot::addCache(uint64_t key, const ShardedMCache &cache)
{
    if (findCache(key))
        panic("snapshot already holds a cache section with key ", key);
    CacheSection sec;
    sec.key = key;
    sec.sets = cache.sets();
    sec.ways = cache.ways();
    sec.dataVersions = cache.dataVersions();
    for (int64_t e = 0; e < cache.entries(); ++e) {
        if (!cache.tagValid(e))
            continue;
        CacheLine line;
        line.entryId = e;
        line.sig = cache.tagAt(e);
        line.epoch = cache.entryEpoch(e);
        line.tenant = cache.entryTenant(e);
        sec.lines.push_back(std::move(line));
    }
    caches_.push_back(std::move(sec));
}

void
Snapshot::addRecord(uint64_t key, const SignatureRecord &record)
{
    if (findRecord(key))
        panic("snapshot already holds a record section with key ", key);
    RecordSection sec;
    sec.key = key;
    sec.dataVersions = record.dataVersions();
    sec.entries = record.entries();
    for (int64_t p = 0; p < record.passCount(); ++p)
        sec.passes.push_back(record.pass(p));
    records_.push_back(std::move(sec));
}

const Snapshot::CacheSection *
Snapshot::findCache(uint64_t key) const
{
    for (const auto &sec : caches_)
        if (sec.key == key)
            return &sec;
    return nullptr;
}

const Snapshot::RecordSection *
Snapshot::findRecord(uint64_t key) const
{
    for (const auto &sec : records_)
        if (sec.key == key)
            return &sec;
    return nullptr;
}

bool
Snapshot::restoreCache(uint64_t key, ShardedMCache &cache,
                       std::string &error) const
{
    const CacheSection *sec = findCache(key);
    if (!sec) {
        error = "snapshot has no cache section with key " +
                std::to_string(key);
        return false;
    }
    if (sec->sets != cache.sets() || sec->ways != cache.ways() ||
        sec->dataVersions != cache.dataVersions()) {
        error = "snapshot cache geometry " + std::to_string(sec->sets) +
                "x" + std::to_string(sec->ways) + "x" +
                std::to_string(sec->dataVersions) +
                " does not match target " +
                std::to_string(cache.sets()) + "x" +
                std::to_string(cache.ways()) + "x" +
                std::to_string(cache.dataVersions());
        return false;
    }
    // Geometry matches and entry ids were validated at parse time, so
    // from here the restore cannot fail half-way.
    cache.clear();
    for (const auto &line : sec->lines)
        cache.restoreLine(line.entryId, line.sig, line.epoch,
                          line.tenant);
    cache.recountTenantReservations();
    return true;
}

bool
Snapshot::restoreRecord(uint64_t key, int64_t entries, int dataVersions,
                        SignatureRecord &record, std::string &error) const
{
    const RecordSection *sec = findRecord(key);
    if (!sec) {
        error = "snapshot has no record section with key " +
                std::to_string(key);
        return false;
    }
    if (sec->entries != entries || sec->dataVersions != dataVersions) {
        error = "snapshot record organization " +
                std::to_string(sec->entries) + " entries x " +
                std::to_string(sec->dataVersions) +
                " versions does not match target " +
                std::to_string(entries) + " entries x " +
                std::to_string(dataVersions) + " versions";
        return false;
    }
    record.restore(sec->passes, sec->dataVersions, sec->entries);
    return true;
}

std::vector<uint8_t>
Snapshot::serialize() const
{
    Writer payload;
    payload.u32(static_cast<uint32_t>(caches_.size()));
    for (const auto &sec : caches_) {
        payload.u64(sec.key);
        payload.u32(static_cast<uint32_t>(sec.sets));
        payload.u32(static_cast<uint32_t>(sec.ways));
        payload.u32(static_cast<uint32_t>(sec.dataVersions));
        payload.u64(static_cast<uint64_t>(sec.lines.size()));
        for (const auto &line : sec.lines) {
            payload.u64(static_cast<uint64_t>(line.entryId));
            payload.u32(static_cast<uint32_t>(line.sig.bits()));
            for (int w = 0; w < Signature::wordsFor(line.sig.bits());
                 ++w)
                payload.u64(line.sig.words()[w]);
            payload.u64(line.epoch);
            payload.i32(line.tenant);
        }
    }
    payload.u32(static_cast<uint32_t>(records_.size()));
    for (const auto &sec : records_) {
        payload.u64(sec.key);
        payload.u32(static_cast<uint32_t>(sec.dataVersions));
        payload.u64(static_cast<uint64_t>(sec.entries));
        payload.u32(static_cast<uint32_t>(sec.passes.size()));
        for (const auto &p : sec.passes) {
            payload.u64(static_cast<uint64_t>(p.rows));
            payload.u32(static_cast<uint32_t>(p.bits));
            payload.u32(static_cast<uint32_t>(p.sigWordsPerRow));
            payload.u64(static_cast<uint64_t>(p.sigWords.size()));
            payload.raw(p.sigWords.data(),
                        p.sigWords.size() * sizeof(uint64_t));
            payload.u64(static_cast<uint64_t>(p.entryIds.size()));
            payload.raw(p.entryIds.data(),
                        p.entryIds.size() * sizeof(int32_t));
            payload.u64(static_cast<uint64_t>(p.outcomes.size()));
            payload.raw(p.outcomes.data(), p.outcomes.size());
            payload.i64(p.mix.vectors);
            payload.i64(p.mix.hit);
            payload.i64(p.mix.mau);
            payload.i64(p.mix.mnu);
        }
    }

    Writer out;
    out.raw(kMagic, sizeof kMagic);
    out.u32(kSnapshotVersion);
    out.u32(0); // flags, reserved
    out.u64(static_cast<uint64_t>(payload.bytes.size()));
    out.u64(fnv1a64(payload.bytes.data(), payload.bytes.size()));
    out.raw(payload.bytes.data(), payload.bytes.size());
    return std::move(out.bytes);
}

bool
Snapshot::parse(const uint8_t *data, size_t size, Snapshot &out,
                std::string &error)
{
    constexpr size_t header = sizeof kMagic + 2 * sizeof(uint32_t) +
                              2 * sizeof(uint64_t);
    if (size < header) {
        error = "snapshot shorter than its header (" +
                std::to_string(size) + " bytes)";
        return false;
    }
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
        error = "not a snapshot: bad magic";
        return false;
    }
    uint32_t version = 0;
    uint32_t flags = 0;
    uint64_t payload_bytes = 0;
    uint64_t checksum = 0;
    size_t pos = sizeof kMagic;
    std::memcpy(&version, data + pos, sizeof version);
    pos += sizeof version;
    std::memcpy(&flags, data + pos, sizeof flags);
    pos += sizeof flags;
    std::memcpy(&payload_bytes, data + pos, sizeof payload_bytes);
    pos += sizeof payload_bytes;
    std::memcpy(&checksum, data + pos, sizeof checksum);
    pos += sizeof checksum;
    if (version != kSnapshotVersion) {
        error = "snapshot version " + std::to_string(version) +
                " unsupported (this build reads version " +
                std::to_string(kSnapshotVersion) + ")";
        return false;
    }
    if (flags != 0) {
        error = "snapshot flags " + std::to_string(flags) +
                " unsupported (reserved, written as 0)";
        return false;
    }
    if (payload_bytes != size - header) {
        error = "snapshot payload length " +
                std::to_string(payload_bytes) +
                " does not match the " + std::to_string(size - header) +
                " bytes present (truncated?)";
        return false;
    }
    if (fnv1a64(data + pos, payload_bytes) != checksum) {
        error = "snapshot payload checksum mismatch (corrupted)";
        return false;
    }

    Snapshot parsed;
    Reader r{data + pos, static_cast<size_t>(payload_bytes), 0, &error};

    uint32_t cache_count = 0;
    if (!r.u32(cache_count, "cache count"))
        return false;
    for (uint32_t c = 0; c < cache_count; ++c) {
        CacheSection sec;
        uint32_t sets = 0, ways = 0, versions = 0;
        uint64_t line_count = 0;
        if (!r.u64(sec.key, "cache key") ||
            !r.u32(sets, "cache sets") || !r.u32(ways, "cache ways") ||
            !r.u32(versions, "cache versions") ||
            !r.u64(line_count, "cache line count"))
            return false;
        sec.sets = static_cast<int>(sets);
        sec.ways = static_cast<int>(ways);
        sec.dataVersions = static_cast<int>(versions);
        // Checked before the multiply: two positive ints multiply
        // within an int64_t, two raw u32 fields need not.
        if (sec.sets <= 0 || sec.ways <= 0 || sec.dataVersions <= 0)
            return r.fail("non-positive cache geometry");
        const int64_t entries =
            static_cast<int64_t>(sec.sets) * static_cast<int64_t>(sec.ways);
        if (line_count > static_cast<uint64_t>(entries))
            return r.fail("more lines than cache entries");
        int64_t prev_id = -1;
        for (uint64_t i = 0; i < line_count; ++i) {
            CacheLine line;
            uint64_t entry_id = 0;
            uint32_t bits = 0;
            if (!r.u64(entry_id, "line entry id") ||
                !r.u32(bits, "line signature bits"))
                return false;
            line.entryId = static_cast<int64_t>(entry_id);
            if (line.entryId <= prev_id || line.entryId >= entries)
                return r.fail("line entry ids out of order or range");
            prev_id = line.entryId;
            if (bits == 0 || bits > kMaxSignatureBits)
                return r.fail("implausible signature length");
            const int words = Signature::wordsFor(static_cast<int>(bits));
            std::vector<uint64_t> sig_words(
                static_cast<size_t>(words));
            if (!r.raw(sig_words.data(),
                       sig_words.size() * sizeof(uint64_t),
                       "line signature words"))
                return false;
            if (!canonicalWords(bits, sig_words.data()))
                return r.fail("line signature sets bits past its length");
            line.sig = Signature::fromWords(static_cast<int>(bits),
                                            sig_words.data());
            int32_t tenant = -1;
            if (!r.u64(line.epoch, "line epoch") ||
                !r.i32(tenant, "line tenant"))
                return false;
            line.tenant = tenant;
            sec.lines.push_back(std::move(line));
        }
        parsed.caches_.push_back(std::move(sec));
    }

    uint32_t record_count = 0;
    if (!r.u32(record_count, "record count"))
        return false;
    for (uint32_t rec = 0; rec < record_count; ++rec) {
        RecordSection sec;
        uint32_t versions = 0, pass_count = 0;
        uint64_t entries = 0;
        if (!r.u64(sec.key, "record key") ||
            !r.u32(versions, "record versions") ||
            !r.u64(entries, "record entries") ||
            !r.u32(pass_count, "record pass count"))
            return false;
        sec.dataVersions = static_cast<int>(versions);
        sec.entries = static_cast<int64_t>(entries);
        if (sec.dataVersions <= 0 || sec.entries <= 0)
            return r.fail("non-positive record organization");
        for (uint32_t p = 0; p < pass_count; ++p) {
            SignatureRecord::Pass pass;
            uint64_t rows = 0, n = 0;
            uint32_t bits = 0, words_per_row = 0;
            if (!r.u64(rows, "pass rows") ||
                !r.u32(bits, "pass bits") ||
                !r.u32(words_per_row, "pass words-per-row"))
                return false;
            if (bits == 0 || bits > kMaxSignatureBits ||
                words_per_row !=
                    static_cast<uint32_t>(
                        Signature::wordsFor(static_cast<int>(bits))))
                return r.fail("inconsistent pass signature layout");
            if (rows > UINT64_MAX / words_per_row)
                return r.fail("pass rows x words-per-row overflows");
            // Every count is checked against the bytes left before it
            // sizes a vector, so rows (bounded by the entry-id count)
            // fits an int64_t from here on.
            pass.bits = static_cast<int>(bits);
            pass.sigWordsPerRow = static_cast<int>(words_per_row);
            if (!r.count(n, sizeof(uint64_t), "pass sig-word count"))
                return false;
            if (n != rows * words_per_row)
                return r.fail("pass sig-word count mismatch");
            pass.sigWords.resize(static_cast<size_t>(n));
            if (!r.raw(pass.sigWords.data(), n * sizeof(uint64_t),
                       "pass sig words"))
                return false;
            for (uint64_t row = 0; row < rows; ++row)
                if (!canonicalWords(bits, pass.wordsOf(
                                              static_cast<int64_t>(row))))
                    return r.fail("pass signature sets bits past its "
                                  "length");
            if (!r.count(n, sizeof(int32_t), "pass entry-id count"))
                return false;
            if (n != rows)
                return r.fail("pass entry-id count mismatch");
            pass.rows = static_cast<int64_t>(rows);
            pass.entryIds.resize(static_cast<size_t>(n));
            if (!r.raw(pass.entryIds.data(), n * sizeof(int32_t),
                       "pass entry ids"))
                return false;
            if (!r.count(n, 1, "pass outcome count"))
                return false;
            if (n != rows)
                return r.fail("pass outcome count mismatch");
            pass.outcomes.resize(static_cast<size_t>(n));
            if (!r.raw(pass.outcomes.data(), n, "pass outcomes"))
                return false;
            // HIT/MAU rows name a cache entry; MNU rows name none.
            // SignatureRecord::ownersOf indexes its owner map by these
            // ids, so an out-of-range one must never get that far.
            for (size_t i = 0; i < pass.outcomes.size(); ++i) {
                const uint8_t o = pass.outcomes[i];
                const int32_t id = pass.entryIds[i];
                if (o > static_cast<uint8_t>(McacheOutcome::Mnu))
                    return r.fail("pass outcome out of range");
                if (o == static_cast<uint8_t>(McacheOutcome::Mnu)
                        ? id != -1
                        : (id < 0 || id >= sec.entries))
                    return r.fail("pass entry id out of range");
            }
            if (!r.i64(pass.mix.vectors, "pass mix vectors") ||
                !r.i64(pass.mix.hit, "pass mix hit") ||
                !r.i64(pass.mix.mau, "pass mix mau") ||
                !r.i64(pass.mix.mnu, "pass mix mnu"))
                return false;
            // Bounding each count by the rows first keeps consistent()'s
            // sum from overflowing.
            const auto within_rows = [&](int64_t c) {
                return c >= 0 && c <= pass.rows;
            };
            if (pass.mix.vectors != pass.rows ||
                !within_rows(pass.mix.hit) || !within_rows(pass.mix.mau) ||
                !within_rows(pass.mix.mnu) || !pass.mix.consistent())
                return r.fail("pass mix inconsistent with its rows");
            sec.passes.push_back(std::move(pass));
        }
        parsed.records_.push_back(std::move(sec));
    }

    if (r.pos != r.size) {
        error = "snapshot payload has " +
                std::to_string(r.size - r.pos) +
                " trailing bytes past the last section";
        return false;
    }
    out = std::move(parsed);
    return true;
}

bool
Snapshot::writeFile(const std::string &path, std::string &error) const
{
    const std::vector<uint8_t> bytes = serialize();
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) {
        error = "short write to " + path;
        return false;
    }
    return true;
}

bool
Snapshot::readFile(const std::string &path, Snapshot &out,
                   std::string &error)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    const std::streamsize size = f.tellg();
    f.seekg(0);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    if (size > 0 &&
        !f.read(reinterpret_cast<char *>(bytes.data()), size)) {
        error = "short read from " + path;
        return false;
    }
    return parse(bytes.data(), bytes.size(), out, error);
}

} // namespace mercury
