#include "core/mcache.hpp"

#include <algorithm>
#include <climits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/logging.hpp"
#include "util/prefetch.hpp"

namespace mercury {

namespace {

/** Ways the probe's key compare covers at once. */
constexpr int kKeyBlock = 16;


/**
 * The ways of one kKeyBlock-way block whose key equals `key`: bit i
 * for keys[i]. SSE2 compares four keys per instruction.
 */
inline uint64_t
keyMatches(const uint32_t *keys, uint32_t key)
{
#if defined(__SSE2__)
    const __m128i k = _mm_set1_epi32(static_cast<int>(key));
    const __m128i *p = reinterpret_cast<const __m128i *>(keys);
    const __m128i a = _mm_cmpeq_epi32(_mm_loadu_si128(p), k);
    const __m128i b = _mm_cmpeq_epi32(_mm_loadu_si128(p + 1), k);
    const __m128i c = _mm_cmpeq_epi32(_mm_loadu_si128(p + 2), k);
    const __m128i d = _mm_cmpeq_epi32(_mm_loadu_si128(p + 3), k);
    // Saturating packs keep each all-ones lane all-ones: 16 bytes, one
    // per way, in way order.
    return static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_packs_epi32(a, b), _mm_packs_epi32(c, d))));
#else
    uint64_t m = 0;
    for (int i = 0; i < kKeyBlock; ++i)
        m |= static_cast<uint64_t>(keys[i] == key) << i;
    return m;
#endif
}

/**
 * `a` when `c`, else `b`, by a mask: the probe's rows pick their
 * writes' targets with it, never by a branch on their outcome.
 */
inline int64_t
selectIf(bool c, int64_t a, int64_t b)
{
    return b + ((a - b) & -static_cast<int64_t>(c));
}

} // namespace

const char *
mcacheOutcomeName(McacheOutcome outcome)
{
    switch (outcome) {
      case McacheOutcome::Hit:
        return "HIT";
      case McacheOutcome::Mau:
        return "MAU";
      case McacheOutcome::Mnu:
        return "MNU";
    }
    return "?";
}

MCache::MCache(int sets, int ways, int data_versions)
    : sets_(sets), ways_(ways), versions_(data_versions),
      maskWords_((ways + 63) / 64),
      setOf_(static_cast<uint32_t>(std::max(sets, 1)))
{
    if (sets <= 0 || ways <= 0 || data_versions <= 0)
        fatal("MCACHE needs positive sets/ways/versions, got ", sets, "/",
              ways, "/", data_versions);
    const size_t lines =
        static_cast<size_t>(sets) * static_cast<size_t>(ways);
    // One sink word past the last set's mask takes the probe's mask
    // writes for rows that install nothing.
    valid_.assign(static_cast<size_t>(sets) *
                          static_cast<size_t>(maskWords_) +
                      1,
                  0);
    // One sink line past the last set takes the probe's writes for rows
    // that change no line.
    lines_.resize(lines + 1);
    tagKeys_.assign(lines + kKeyBlock, 0);
    tagRest_.resize(lines);
}

MCache::Way
MCache::wayOf(int64_t entry_id) const
{
    if (entry_id < 0 || entry_id >= entries())
        panic("MCACHE entry id ", entry_id, " out of range");
    const int64_t set = entry_id / ways_;
    return {static_cast<int>(set), static_cast<int>(entry_id - set * ways_)};
}

uint64_t &
MCache::maskWord(Way l)
{
    return valid_[static_cast<size_t>(l.set) * maskWords_ + l.way / 64];
}

bool
MCache::valid(Way l) const
{
    return (valid_[static_cast<size_t>(l.set) * maskWords_ + l.way / 64] >>
            (l.way % 64)) &
           1;
}

MCache::Line &
MCache::line(Way l)
{
    return lines_[static_cast<size_t>(l.set) * ways_ + l.way];
}

const MCache::Line &
MCache::line(Way l) const
{
    return lines_[static_cast<size_t>(l.set) * ways_ + l.way];
}

void
MCache::setIndices(int bits, const uint64_t *words, int64_t rows,
                   int32_t *sets) const
{
    if (Signature::wordsFor(bits) == 1) {
        for (int64_t r = 0; r < rows; ++r)
            sets[r] =
                static_cast<int32_t>(setOf_(Signature::hashWord(bits, words[r])));
        return;
    }
    const int64_t wpr = Signature::wordsFor(bits);
    for (int64_t r = 0; r < rows; ++r)
        sets[r] = setIndexOf(bits, words + r * wpr);
}

McacheResult
MCache::lookupOrInsert(const Signature &sig)
{
    const int32_t set = setIndexOf(sig.bits(), sig.words());
    uint8_t outcome = 0;
    int32_t entry = -1;
    McacheProbe one;
    one.bits = sig.bits();
    one.wordsPerRow = Signature::wordsFor(sig.bits());
    one.words = sig.words();
    one.sets = &set;
    one.outcomes = &outcome;
    one.entryIds = &entry;
    probeBlock(one, 0, 1, nullptr);
    return {static_cast<McacheOutcome>(outcome), entry};
}

MCache::Slot
MCache::searchSet(int set, int bits, const uint64_t *words) const
{
    const int64_t base = static_cast<int64_t>(set) * ways_;
    const uint64_t *mask = &valid_[static_cast<size_t>(set) * maskWords_];
    const size_t rest = static_cast<size_t>(Signature::wordsFor(bits) - 1);
    Slot s{0, 0, false, false};
    for (int mw = 0; mw < maskWords_ && !s.hit; ++mw) {
        for (uint64_t m = mask[mw]; m != 0; m &= m - 1) {
            const int way = mw * 64 + __builtin_ctzll(m);
            const size_t e = static_cast<size_t>(base + way);
            if (lines_[e].word0 == words[0] && lines_[e].bits == bits &&
                (bits <= 64 ||
                 std::equal(words + 1, words + 1 + rest, tagRest_[e].begin()))) {
                s.way = way;
                s.hit = true;
                break;
            }
        }
    }
    for (int mw = 0; mw < maskWords_ && !s.hasFree; ++mw) {
        const int in_word = std::min(64, ways_ - mw * 64);
        const uint64_t free =
            ~mask[mw] & (in_word == 64 ? ~0ull : (1ull << in_word) - 1);
        if (free != 0) {
            s.spare = mw * 64 + __builtin_ctzll(free);
            s.hasFree = true;
        }
    }
    return s;
}

void
MCache::probeBlock(McacheProbe &stream, int32_t r0, int32_t r1,
                   OwnerTable *owners)
{
    // Loop-wide conditions: each stays one predictable branch below.
    const int bits = stream.bits;
    const int64_t wpr = stream.wordsPerRow;
    const bool long_tags = bits > 64;
    const int mask_words = maskWords_;
    const bool wide = mask_words > 1;
    const int ways = ways_;
    const uint64_t epoch = epoch_;
    const int32_t tenant = insertTenant_;
    // The inserting tenant's quota count, or one that never fills.
    int64_t *const quota_count = quotaCount(insertTenant_);
    const int64_t quota = quota_count ? quota_ : INT64_MAX;
    int64_t held = quota_count ? *quota_count : 0;

    // Every way of the first mask word is compared by key, kKeyBlock at
    // a time; a block reaching past the set reads keys the valid bits
    // mask off (the key vector is padded past the last set). Its last
    // way is the sentinel bit of the match and free-way scans, always
    // inside the set. Sets over 64 ways and tags over 64 bits walk
    // every valid way (searchSet).
    const int ways0 = std::min(ways, 64);
    const int key_blocks = (ways0 + kKeyBlock - 1) / kKeyBlock;
    const uint64_t word0 = ways0 == 64 ? ~0ull : (1ull << ways0) - 1;
    const uint64_t last_way = 1ull << (ways0 - 1);

    reserveInstalled(r1 - r0);
    // Base pointers and counters in locals: with them, GCC keeps the
    // selects below as integer-mask arithmetic instead of branches.
    uint64_t *const valid = valid_.data();
    Line *const lines = lines_.data();
    uint32_t *const keys = tagKeys_.data();
    Way *const installed = installed_.data();
    const size_t capacity = static_cast<size_t>(entries());
    const int64_t sink = entries();
    const int64_t mask_sink = static_cast<int64_t>(sets_) * mask_words;
    const size_t listed0 = installedCount_;
    size_t listed = listed0;
    const uint64_t *const words = stream.words;
    const int32_t *const sets = stream.sets;
    uint8_t *const outcomes = stream.outcomes;
    int32_t *const entry_ids = stream.entryIds;
    int32_t *const owner_rows = stream.owners;
    OwnerTable::Cursor oc = owners ? owners->cursor(r1 - r0)
                                   : OwnerTable::Cursor{nullptr, nullptr, 0, 0};
    int64_t hits = 0, maus = 0, forwarded = 0;

    for (int32_t r = r0; r < r1; ++r) {
        const int32_t set = sets[r];
        {
            // Pull the set of the row eight ahead into cache — its
            // mask, keys, the records of its low ways (where a
            // cleared cache installs and hits) and owners: a cache
            // the engines' computes evicted between passes, or one
            // larger than the L1 (a persistent serving cache),
            // otherwise makes the probe wait on memory row by row.
            const int32_t ahead = sets[std::min(r + 8, r1 - 1)];
            const int64_t line = static_cast<int64_t>(ahead) * ways;
            prefetchRead(valid + static_cast<size_t>(ahead) * mask_words);
            prefetchRead(keys + line);
            prefetchRead(lines + line);
            if (owners)
                prefetchRead(oc.ownerOfEntry + line);
        }
        const uint64_t *w = words + r * wpr;
        const uint64_t w0 = w[0];
        const uint32_t key = tagKey(bits, w0);
        const int64_t base = static_cast<int64_t>(set) * ways;
        uint64_t *mask = valid + static_cast<size_t>(set) * mask_words;
        const uint64_t m = mask[0];
        const uint64_t free = ~m & word0;
        // 1 when way k's tag is the row's: length and word agree.
        const auto same = [&](int64_t k) -> uint64_t {
            const Line &ln = lines[base + k];
            return ((ln.word0 ^ w0) |
                    static_cast<uint32_t>(ln.bits ^ bits)) == 0;
        };
        Slot s{};
        if (__builtin_expect(wide | long_tags, 0)) {
            s = searchSet(set, bits, w);
        } else {
            // The ways whose key matches, then the first of them in
            // full: one compare of every way, as the hardware's
            // (Fig. 9), with no walk over a full set.
            uint64_t cand = keyMatches(keys + base, key);
            for (int b = 1; b < key_blocks; ++b)
                cand |= keyMatches(keys + base + b * kKeyBlock, key)
                        << (b * kKeyBlock);
            cand &= m;
            // The first candidate, or way 0 (a record the row's
            // writes likely touch anyway) when there is none.
            int way = __builtin_ctzll(cand | last_way) &
                      -static_cast<int>(cand != 0);
            uint64_t hit = (cand >> way) & same(way);
            // Candidates left when the first is not the tag (two
            // tags with one key in a set): rare, so this one branch
            // predicts.
            if (__builtin_expect((cand & (hit - 1)) != 0, 0)) {
                for (uint64_t c = cand & (cand - 1); c != 0 && !hit;
                     c &= c - 1) {
                    way = __builtin_ctzll(c);
                    hit = same(way);
                }
            }
            s = {way, __builtin_ctzll(free | last_way), hit != 0,
                 free != 0};
        }
        const bool hit = s.hit;
        const bool ins = !hit & s.hasFree & (held < quota);
        const bool mnu = !hit & !ins;

        // The line this row touches: its match, else the lowest free
        // way. A write the row does not make goes to a sink (the
        // line past the last set, the mask word past the last set's)
        // instead of rewriting the line with its own value: the next
        // row's loads then never wait on a store to a line that did
        // not change. An insert stamps tag, key, length, epoch and
        // tenant; a HIT refreshes the epoch.
        const int64_t hm = -static_cast<int64_t>(hit);
        const int pick = static_cast<int>((s.way & hm) | (s.spare & ~hm));
        const int64_t e = base + pick;
        const int64_t installs_at = selectIf(ins, e, sink);
        if (wide)
            mask[pick >> 6] |= static_cast<uint64_t>(ins) << (pick & 63);
        else
            valid[selectIf(ins, static_cast<int64_t>(set) * mask_words,
                           mask_sink)] = m | (1ull << pick);
        Line &at = lines[installs_at];
        at.word0 = w0;
        at.bits = bits;
        at.tenant = tenant;
        lines[selectIf(hit | ins, e, sink)].epoch = epoch;
        keys[installs_at] = key;
        if (long_tags && ins)
            tagRest_[static_cast<size_t>(e)].assign(w + 1, w + wpr);
        installed[listed] = {set, pick};
        listed += ins & (listed < capacity);
        held += ins;
        hits += hit;
        maus += ins;

        // HIT 0, MAU 1, MNU 2; an MNU's entry id is -1.
        outcomes[r] = static_cast<uint8_t>(2 - 2 * hit - ins);
        entry_ids[r] = static_cast<int32_t>(e) | -static_cast<int32_t>(mnu);
        if (owners) {
            const int32_t o = oc.resolve(r, hit, ins, e);
            owner_rows[r] = o;
            forwarded += o != r;
        }
    }

    // An install the full list could not take sends clear() walking.
    installedOverflow_ |= static_cast<size_t>(maus) > listed - listed0;
    installedCount_ = listed;
    if (quota_count)
        *quota_count = held;
    if (owners)
        owners->count_ = oc.count;
    const int64_t mnus = (r1 - r0) - hits - maus;
    stats_.hits += hits;
    stats_.mau += maus;
    stats_.mnu += mnus;
    stream.mix.hits += hits;
    stream.mix.mau += maus;
    stream.mix.mnu += mnus;
    stream.forwarded += forwarded;
}

void
MCache::install(int64_t entry_id, int bits, const uint64_t *words)
{
    const size_t e = static_cast<size_t>(entry_id);
    lines_[e].word0 = bits > 0 ? words[0] : 0;
    lines_[e].bits = bits;
    tagKeys_[e] = tagKey(bits, lines_[e].word0);
    if (bits > 64)
        tagRest_[e].assign(words + 1, words + Signature::wordsFor(bits));
}

void
MCache::reserveInstalled(int64_t rows)
{
    const size_t most = static_cast<size_t>(entries()) + 1;
    const size_t need =
        std::min(installedCount_ + static_cast<size_t>(rows) + 1, most);
    if (installed_.size() < need)
        installed_.resize(
            std::min(std::max(need, 2 * installed_.size()), most));
}

void
MCache::noteInstalled(Way l)
{
    reserveInstalled(1);
    if (installedCount_ < static_cast<size_t>(entries()))
        installed_[installedCount_++] = l;
    else
        installedOverflow_ = true;
}

int64_t *
MCache::quotaCount(int tenant)
{
    if (quota_ == 0 || tenant < 0)
        return nullptr; // no quota, or an unowned line
    if (tenant >= quotaTenants())
        panic("tenant id ", tenant, " out of quota range 0..",
              quotaTenants() - 1);
    return &tenantLines_[static_cast<size_t>(tenant)];
}

void
MCache::countQuotaLine(int tenant)
{
    int64_t *held = quotaCount(tenant);
    if (!held)
        return;
    if (*held >= quota_)
        panic("tenant ", tenant, " holds more lines than its quota of ",
              quota_);
    ++*held;
}

void
MCache::setTenantQuota(int64_t entries, int max_tenants)
{
    quota_ = std::max<int64_t>(entries, 0);
    const int tenants = quota_ > 0 ? std::max(max_tenants, 0) : 0;
    tenantLines_.assign(static_cast<size_t>(tenants), 0);
    for (int set = 0; set < sets_; ++set)
        for (int way = 0; way < ways_; ++way)
            if (valid({set, way}))
                countQuotaLine(line({set, way}).tenant);
}

int64_t
MCache::tenantReserved(int tenant) const
{
    if (tenant < 0 || tenant >= quotaTenants())
        return 0;
    return tenantLines_[static_cast<size_t>(tenant)];
}

void
MCache::resetLine(Way l)
{
    if (valid(l))
        dropLine(l);
    line(l) = Line{};
}

void
MCache::clear()
{
    // A line never installed since the last clear is as constructed:
    // eviction resets epoch and tenant. So resetting the listed lines
    // leaves every line and every quota reservation as the full walk
    // would.
    // Every valid line is listed, so a listed line's whole set mask can
    // be zeroed at once — after the quota of each valid listed line is
    // released (a line listed twice is invalid after its first visit).
    if (installedOverflow_) {
        for (int set = 0; set < sets_; ++set)
            for (int way = 0; way < ways_; ++way)
                resetLine({set, way});
    } else {
        const Way *listed = installed_.data();
        if (quota_ > 0)
            for (size_t i = 0; i < installedCount_; ++i)
                if (valid(listed[i]))
                    dropLine(listed[i]);
        // One store per mask word (a fill would call memset per line).
        uint64_t *const valid = valid_.data();
        const int mask_words = maskWords_;
        for (size_t i = 0; i < installedCount_; ++i) {
            const Way l = listed[i];
            line(l) = Line{};
            uint64_t *mask = valid + static_cast<size_t>(l.set) * mask_words;
            mask[0] = 0;
            for (int w = 1; w < mask_words; ++w)
                mask[w] = 0;
        }
    }
    installedCount_ = 0;
    installedOverflow_ = false;
}

int
MCache::setOccupancy(int set) const
{
    if (set < 0 || set >= sets_)
        panic("set index ", set, " out of range");
    int occ = 0;
    for (int mw = 0; mw < maskWords_; ++mw)
        occ += __builtin_popcountll(
            valid_[static_cast<size_t>(set) * maskWords_ + mw]);
    return occ;
}

uint64_t
MCache::entryEpoch(int64_t entry_id) const
{
    return line(wayOf(entry_id)).epoch;
}

int
MCache::entryTenant(int64_t entry_id) const
{
    return line(wayOf(entry_id)).tenant;
}

bool
MCache::tagValid(int64_t entry_id) const
{
    return valid(wayOf(entry_id));
}

Signature
MCache::tagOf(int64_t entry_id) const
{
    if (!valid(wayOf(entry_id)))
        panic("MCACHE tag read of an invalid line: entry ", entry_id);
    const size_t e = static_cast<size_t>(entry_id);
    const int bits = lines_[e].bits;
    if (bits <= 64)
        return Signature::fromWords(bits, &lines_[e].word0);
    std::vector<uint64_t> words(1, lines_[e].word0);
    words.insert(words.end(), tagRest_[e].begin(), tagRest_[e].end());
    return Signature::fromWords(bits, words.data());
}

int64_t
MCache::tenantEntries(int tenant) const
{
    int64_t n = 0;
    for (int set = 0; set < sets_; ++set)
        for (int way = 0; way < ways_; ++way)
            n += valid({set, way}) && line({set, way}).tenant == tenant;
    return n;
}

void
MCache::dropLine(Way l)
{
    Line &m = line(l);
    if (int64_t *held = quotaCount(m.tenant))
        --*held;
    maskWord(l) &= ~(1ull << (l.way % 64));
    m.epoch = 0;
    m.tenant = -1;
}

int64_t
MCache::evictOlderThan(uint64_t min_epoch)
{
    int64_t evicted = 0;
    for (int set = 0; set < sets_; ++set) {
        for (int way = 0; way < ways_; ++way) {
            const Way l{set, way};
            if (!valid(l) || line(l).epoch >= min_epoch)
                continue;
            dropLine(l);
            ++evicted;
        }
    }
    return evicted;
}

void
MCache::restoreLine(int64_t entry_id, const Signature &sig,
                    uint64_t epoch, int tenant)
{
    const Way l = wayOf(entry_id);
    if (valid(l))
        panic("MCACHE restore into an occupied line: entry ", entry_id);
    countQuotaLine(tenant);
    maskWord(l) |= 1ull << (l.way % 64);
    install(entry_id, sig.bits(), sig.words());
    Line &ln = line(l);
    ln.epoch = epoch;
    ln.tenant = tenant;
    noteInstalled(l);
}

} // namespace mercury
