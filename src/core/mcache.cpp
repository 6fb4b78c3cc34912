#include "core/mcache.hpp"

#include <algorithm>

#include "util/logging.hpp"

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
    tagWord0_.assign(lines, 0);
    tagBits_.assign(lines, 0);
    tagRest_.resize(lines);
    meta_.resize(lines);
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
    return lookupOrInsertInSet(setIndexOf(sig.bits(), sig.words()),
                               sig.bits(), sig.words());
}

McacheResult
MCache::lookupOrInsertInSet(int set, int bits, const uint64_t *words)
{
    if (set < 0 || set >= sets_)
        panic("set index ", set, " out of range 0..", sets_ - 1);
    const int64_t base = static_cast<int64_t>(set) * ways_;
    uint64_t *mask = &valid_[static_cast<size_t>(set) * maskWords_];
    const uint64_t w0 = bits > 0 ? words[0] : 0;
    const size_t rest = static_cast<size_t>(Signature::wordsFor(bits) - 1);

    // Tag search among valid ways, lowest first: first word and length,
    // then the remaining words of a long tag.
    for (int mw = 0; mw < maskWords_; ++mw) {
        for (uint64_t m = mask[mw]; m != 0; m &= m - 1) {
            const int64_t e = base + mw * 64 + __builtin_ctzll(m);
            if (tagWord0_[static_cast<size_t>(e)] != w0 ||
                tagBits_[static_cast<size_t>(e)] != bits)
                continue;
            if (bits > 64 &&
                !std::equal(words + 1, words + 1 + rest,
                            tagRest_[static_cast<size_t>(e)].begin()))
                continue;
            meta_[static_cast<size_t>(e)].epoch = epoch_;
            ++stats_.hits;
            return {McacheOutcome::Hit, e};
        }
    }
    // Miss: claim the lowest free way (no replacement, §III-B3).
    for (int mw = 0; mw < maskWords_; ++mw) {
        const int in_word = std::min(64, ways_ - mw * 64);
        const uint64_t ways_here =
            in_word == 64 ? ~0ull : (1ull << in_word) - 1;
        const uint64_t free = ~mask[mw] & ways_here;
        if (free == 0)
            continue;
        int64_t *held = quotaCount(insertTenant_);
        if (held && *held >= quota_) {
            ++stats_.mnu;
            return {McacheOutcome::Mnu, -1};
        }
        if (held)
            ++*held;
        const int way = mw * 64 + __builtin_ctzll(free);
        const int64_t e = base + way;
        mask[mw] |= free & -free;
        install(e, bits, words);
        meta_[static_cast<size_t>(e)].epoch = epoch_;
        meta_[static_cast<size_t>(e)].tenant = insertTenant_;
        noteInstalled({set, way});
        ++stats_.mau;
        ++insertBacklog_[static_cast<size_t>(set)];
        return {McacheOutcome::Mau, e};
    }
    ++stats_.mnu;
    return {McacheOutcome::Mnu, -1};
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
MCache::noteInstalled(Way l)
{
    if (installed_.size() < meta_.size())
        installed_.push_back(l);
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
        if (quota_ > 0)
            for (const Way l : installed_)
                if (valid(l))
                    dropLine(l);
        for (const Way l : installed_) {
            meta(l) = Meta{};
            std::fill_n(&valid_[static_cast<size_t>(l.set) * maskWords_],
                        maskWords_, 0);
            insertBacklog_[static_cast<size_t>(l.set)] = 0;
        }
    }
    installed_.clear();
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
