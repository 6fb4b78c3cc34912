#include "core/mcache.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/prefetch.hpp"

namespace mercury {

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
      maskWords_((ways + 63) / 64)
{
    if (sets <= 0 || ways <= 0 || data_versions <= 0)
        fatal("MCACHE needs positive sets/ways/versions, got ", sets, "/",
              ways, "/", data_versions);
    const size_t lines =
        static_cast<size_t>(sets) * static_cast<size_t>(ways);
    valid_.assign(static_cast<size_t>(sets) *
                      static_cast<size_t>(maskWords_),
                  0);
    // One sink line past the last set takes the probe's writes for rows
    // that change no line.
    tagWord0_.assign(lines + 1, 0);
    tagBits_.assign(lines + 1, 0);
    tagRest_.resize(lines);
    meta_.resize(lines + 1);
    insertBacklog_.assign(static_cast<size_t>(sets), 0);
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

MCache::Meta &
MCache::meta(Way l)
{
    return meta_[static_cast<size_t>(l.set) * ways_ + l.way];
}

const MCache::Meta &
MCache::meta(Way l) const
{
    return meta_[static_cast<size_t>(l.set) * ways_ + l.way];
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
            if (tagWord0_[e] == words[0] && tagBits_[e] == bits &&
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

    // The first (up to) four ways are compared unconditionally; their
    // indices are clamped into the set, and a clamped duplicate's
    // valid bit is never set, so nothing outside the set is read.
    // Sets over 64 ways walk every way (searchSet).
    const int64_t k1 = std::min(1, ways - 1), k2 = std::min(2, ways - 1),
                  k3 = std::min(3, ways - 1);
    const uint64_t beyond_low = ~0ull << std::min(ways, 4);
    // Ways of the first mask word; its last way is the sentinel free
    // bit, always inside the set.
    const int ways0 = std::min(ways, 64);
    const uint64_t word0 = ways0 == 64 ? ~0ull : (1ull << ways0) - 1;
    const uint64_t free_sentinel = 1ull << (ways0 - 1);

    reserveInstalled(r1 - r0);
    // Base pointers and counters in locals: with them, GCC keeps the
    // selects below as integer-mask arithmetic instead of branches.
    uint64_t *const valid = valid_.data();
    uint64_t *const tag0 = tagWord0_.data();
    int32_t *const tag_bits = tagBits_.data();
    Meta *const meta = meta_.data();
    uint64_t *const backlog = insertBacklog_.data();
    Way *const installed = installed_.data();
    const size_t capacity = static_cast<size_t>(entries());
    const int64_t sink = entries();
    uint64_t mask_sink = 0;
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
            // Pull the lines of the set eight rows ahead into cache: a
            // cache larger than the L1 (a persistent serving cache)
            // otherwise makes the probe wait on memory row by row.
            const int32_t ahead = sets[std::min(r + 8, r1 - 1)];
            const int64_t line = static_cast<int64_t>(ahead) * ways;
            prefetchRead(valid + static_cast<size_t>(ahead) * mask_words);
            prefetchRead(tag0 + line);
            prefetchRead(tag_bits + line);
            prefetchRead(meta + line);
            if (owners)
                prefetchRead(oc.ownerOfEntry + line);
        }
        const uint64_t *w = words + r * wpr;
        const uint64_t w0 = w[0];
        const int64_t base = static_cast<int64_t>(set) * ways;
        uint64_t *mask = valid + static_cast<size_t>(set) * mask_words;
        const uint64_t m = mask[0];
        const uint64_t *t = tag0 + base;
        const int32_t *tb = tag_bits + base;
        const auto same = [&](int64_t k) {
            return static_cast<uint64_t>(
                ((t[k] ^ w0) | static_cast<uint32_t>(tb[k] ^ bits)) == 0);
        };
        uint64_t match =
            (same(0) | same(k1) << 1 | same(k2) << 2 | same(k3) << 3) & m;
        const uint64_t free = ~m & word0;
        Slot s{};
        if (__builtin_expect(wide, 0)) {
            s = searchSet(set, bits, w);
        } else {
            // A set that holds more valid ways than the four (rare in a
            // cleared cache, common in a persistent one) compares them
            // too: the branch follows the cache's occupancy, not this
            // row's outcome.
            for (uint64_t more = m & beyond_low; more != 0; more &= more - 1) {
                const int k = __builtin_ctzll(more);
                match |= same(k) << k;
            }
            if (long_tags) {
                for (uint64_t c = match; c != 0; c &= c - 1) {
                    const int k = __builtin_ctzll(c);
                    if (!std::equal(w + 1, w + wpr,
                                    tagRest_[static_cast<size_t>(base + k)]
                                        .begin()))
                        match &= ~(1ull << k);
                }
            }
            s = {__builtin_ctzll(match | 1ull << 63),
                 __builtin_ctzll(free | free_sentinel), match != 0,
                 free != 0};
        }
        const bool hit = s.hit;
        const bool ins = !hit & s.hasFree & (held < quota);
        const bool mnu = !hit & !ins;

        // The line this row touches: its match, else the lowest free
        // way. A write the row does not make goes to the sink line (to
        // a local for the valid mask) instead of rewriting the line with
        // its own value: the next row's loads then never wait on a
        // store to a line that did not change. An insert stamps tag,
        // length, epoch and tenant; a HIT refreshes the epoch.
        const int64_t hm = -static_cast<int64_t>(hit);
        const int pick = static_cast<int>((s.way & hm) | (s.spare & ~hm));
        const int64_t e = base + pick;
        const int64_t installs_at =
            e + ((sink - e) & (static_cast<int64_t>(ins) - 1));
        const int64_t touches_at =
            e + ((sink - e) & (static_cast<int64_t>(hit | ins) - 1));
        if (wide)
            mask[pick >> 6] |= static_cast<uint64_t>(ins) << (pick & 63);
        else
            *(ins ? mask : &mask_sink) = m | (1ull << pick);
        tag0[installs_at] = w0;
        tag_bits[installs_at] = bits;
        meta[touches_at].epoch = epoch;
        meta[installs_at].tenant = tenant;
        if (long_tags && ins)
            tagRest_[static_cast<size_t>(e)].assign(w + 1, w + wpr);
        backlog[set] += ins;
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
    tagWord0_[e] = bits > 0 ? words[0] : 0;
    tagBits_[e] = bits;
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
                countQuotaLine(meta({set, way}).tenant);
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
    meta(l) = Meta{};
}

void
MCache::clear()
{
    // A line never installed since the last clear is as constructed:
    // eviction resets epoch and tenant, and pins only ever sit on
    // valid lines. So resetting the listed lines leaves every line,
    // every quota reservation and the backlog as the full walk would.
    // Every valid line is listed, so a listed line's whole set mask can
    // be zeroed at once — after the quota of each valid listed line is
    // released (a line listed twice is invalid after its first visit).
    if (installedOverflow_) {
        for (int set = 0; set < sets_; ++set)
            for (int way = 0; way < ways_; ++way)
                resetLine({set, way});
        std::fill(insertBacklog_.begin(), insertBacklog_.end(), 0);
    } else {
        const Way *listed = installed_.data();
        if (quota_ > 0)
            for (size_t i = 0; i < installedCount_; ++i)
                if (valid(listed[i]))
                    dropLine(listed[i]);
        for (size_t i = 0; i < installedCount_; ++i) {
            const Way l = listed[i];
            meta(l) = Meta{};
            std::fill_n(&valid_[static_cast<size_t>(l.set) * maskWords_],
                        maskWords_, 0);
            insertBacklog_[static_cast<size_t>(l.set)] = 0;
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
MCache::maxInsertBacklog() const
{
    uint64_t mx = 0;
    for (uint64_t b : insertBacklog_)
        mx = std::max(mx, b);
    return mx;
}

void
MCache::resetInsertBacklog()
{
    std::fill(insertBacklog_.begin(), insertBacklog_.end(), 0);
}

uint64_t
MCache::entryEpoch(int64_t entry_id) const
{
    return meta(wayOf(entry_id)).epoch;
}

int
MCache::entryTenant(int64_t entry_id) const
{
    return meta(wayOf(entry_id)).tenant;
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
    const int bits = tagBits_[e];
    if (bits <= 64)
        return Signature::fromWords(bits, &tagWord0_[e]);
    std::vector<uint64_t> words(1, tagWord0_[e]);
    words.insert(words.end(), tagRest_[e].begin(), tagRest_[e].end());
    return Signature::fromWords(bits, words.data());
}

int64_t
MCache::tenantEntries(int tenant) const
{
    int64_t n = 0;
    for (int set = 0; set < sets_; ++set)
        for (int way = 0; way < ways_; ++way)
            n += valid({set, way}) && meta({set, way}).tenant == tenant;
    return n;
}

void
MCache::pin(int64_t entry_id)
{
    const Way l = wayOf(entry_id);
    if (!valid(l))
        panic("MCACHE pin of an invalid line: entry ", entry_id);
    ++meta(l).pins;
}

void
MCache::unpin(int64_t entry_id)
{
    Meta &m = meta(wayOf(entry_id));
    if (m.pins == 0)
        panic("MCACHE unpin of an unpinned line: entry ", entry_id);
    --m.pins;
}

uint32_t
MCache::pinCount(int64_t entry_id) const
{
    return meta(wayOf(entry_id)).pins;
}

void
MCache::dropLine(Way l)
{
    Meta &m = meta(l);
    if (int64_t *held = quotaCount(m.tenant))
        --*held;
    maskWord(l) &= ~(1ull << (l.way % 64));
    m.epoch = 0;
    m.tenant = -1;
}

template <typename Pred>
int64_t
MCache::evictWhere(Pred &&evict)
{
    int64_t evicted = 0;
    for (int set = 0; set < sets_; ++set) {
        for (int way = 0; way < ways_; ++way) {
            const Way l{set, way};
            const Meta &m = meta(l);
            if (!valid(l) || m.pins > 0 || !evict(m))
                continue;
            dropLine(l);
            ++evicted;
        }
    }
    return evicted;
}

int64_t
MCache::evictOlderThan(uint64_t min_epoch)
{
    return evictWhere([&](const Meta &m) { return m.epoch < min_epoch; });
}

int64_t
MCache::evictTenant(int tenant)
{
    return evictWhere([&](const Meta &m) { return m.tenant == tenant; });
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
    meta(l) = {epoch, tenant, 0};
    noteInstalled(l);
}

} // namespace mercury
