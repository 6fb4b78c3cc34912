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
    : sets_(sets), ways_(ways), versions_(data_versions)
{
    if (sets <= 0 || ways <= 0 || data_versions <= 0)
        fatal("MCACHE needs positive sets/ways/versions, got ", sets, "/",
              ways, "/", data_versions);
    lines_.resize(static_cast<size_t>(sets) * static_cast<size_t>(ways));
    insertBacklog_.assign(static_cast<size_t>(sets), 0);
}

MCache::Line &
MCache::line(int64_t entry_id)
{
    if (entry_id < 0 || entry_id >= entries())
        panic("MCACHE entry id ", entry_id, " out of range");
    return lines_[static_cast<size_t>(entry_id)];
}

const MCache::Line &
MCache::line(int64_t entry_id) const
{
    if (entry_id < 0 || entry_id >= entries())
        panic("MCACHE entry id ", entry_id, " out of range");
    return lines_[static_cast<size_t>(entry_id)];
}

int
MCache::setIndexOf(const Signature &sig) const
{
    return static_cast<int>(sig.hash() % static_cast<uint64_t>(sets_));
}

McacheResult
MCache::lookupOrInsert(const Signature &sig)
{
    return lookupOrInsertInSet(setIndexOf(sig), sig.bits(), sig.words());
}

namespace {

/** True when `tag` is the signature with these packed words. */
bool
sameTag(const Signature &tag, int bits, const uint64_t *words, int nw)
{
    if (tag.bits() != bits)
        return false;
    const uint64_t *t = tag.words();
    for (int w = 0; w < nw; ++w)
        if (t[w] != words[w])
            return false;
    return true;
}

} // namespace

McacheResult
MCache::lookupOrInsertInSet(int set, int bits, const uint64_t *words)
{
    if (set < 0 || set >= sets_)
        panic("set index ", set, " out of range 0..", sets_ - 1);
    const int64_t base = static_cast<int64_t>(set) * ways_;
    const int nw = Signature::wordsFor(bits);

    // Tag search among valid ways.
    for (int w = 0; w < ways_; ++w) {
        Line &l = lines_[static_cast<size_t>(base + w)];
        if (l.validTag && sameTag(l.tag, bits, words, nw)) {
            l.epoch = epoch_;
            ++stats_.hits;
            return {McacheOutcome::Hit, base + w};
        }
    }
    // Miss: try to claim a free way (no replacement, §III-B3).
    for (int w = 0; w < ways_; ++w) {
        Line &l = lines_[static_cast<size_t>(base + w)];
        if (!l.validTag) {
            if (quotaGate_ && !quotaGate_->tryReserve(insertTenant_)) {
                ++stats_.mnu;
                return {McacheOutcome::Mnu, -1};
            }
            l.tag = Signature::fromWords(bits, words);
            l.validTag = true;
            l.epoch = epoch_;
            l.tenant = insertTenant_;
            noteInstalled(base + w);
            ++stats_.mau;
            ++insertBacklog_[static_cast<size_t>(set)];
            return {McacheOutcome::Mau, base + w};
        }
    }
    ++stats_.mnu;
    return {McacheOutcome::Mnu, -1};
}

void
MCache::noteInstalled(int64_t entry_id)
{
    if (installed_.size() < lines_.size())
        installed_.push_back(entry_id);
    else
        installedOverflow_ = true;
}

void
MCache::resetLine(Line &l)
{
    if (l.validTag && quotaGate_)
        quotaGate_->release(l.tenant);
    l.validTag = false;
    l.epoch = 0;
    l.tenant = -1;
    l.pins = 0;
}

void
MCache::clear()
{
    // A line never installed since the last clear is as constructed:
    // eviction resets epoch and tenant, and pins only ever sit on
    // valid lines. So resetting the listed lines (a line listed twice
    // is invalid, and released, after its first visit) leaves every
    // line, every quota reservation and the backlog as the full walk
    // would.
    if (installedOverflow_) {
        for (auto &l : lines_)
            resetLine(l);
        std::fill(insertBacklog_.begin(), insertBacklog_.end(), 0);
    } else {
        for (const int64_t e : installed_) {
            resetLine(lines_[static_cast<size_t>(e)]);
            insertBacklog_[static_cast<size_t>(e / ways_)] = 0;
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
    const int64_t base = static_cast<int64_t>(set) * ways_;
    for (int w = 0; w < ways_; ++w)
        occ += lines_[static_cast<size_t>(base + w)].validTag;
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
    return line(entry_id).epoch;
}

int
MCache::entryTenant(int64_t entry_id) const
{
    return line(entry_id).tenant;
}

bool
MCache::tagValid(int64_t entry_id) const
{
    return line(entry_id).validTag;
}

const Signature &
MCache::tagOf(int64_t entry_id) const
{
    const Line &l = line(entry_id);
    if (!l.validTag)
        panic("MCACHE tag read of an invalid line: entry ", entry_id);
    return l.tag;
}

int64_t
MCache::tenantEntries(int tenant) const
{
    int64_t n = 0;
    for (const auto &l : lines_)
        n += (l.validTag && l.tenant == tenant);
    return n;
}

void
MCache::pin(int64_t entry_id)
{
    Line &l = line(entry_id);
    if (!l.validTag)
        panic("MCACHE pin of an invalid line: entry ", entry_id);
    ++l.pins;
}

void
MCache::unpin(int64_t entry_id)
{
    Line &l = line(entry_id);
    if (l.pins == 0)
        panic("MCACHE unpin of an unpinned line: entry ", entry_id);
    --l.pins;
}

uint32_t
MCache::pinCount(int64_t entry_id) const
{
    return line(entry_id).pins;
}

void
MCache::evictLine(Line &l)
{
    if (quotaGate_)
        quotaGate_->release(l.tenant);
    l.validTag = false;
    l.epoch = 0;
    l.tenant = -1;
}

int64_t
MCache::evictOlderThan(uint64_t min_epoch)
{
    int64_t evicted = 0;
    for (auto &l : lines_) {
        if (!l.validTag || l.epoch >= min_epoch || l.pins > 0)
            continue;
        evictLine(l);
        ++evicted;
    }
    return evicted;
}

int64_t
MCache::evictTenant(int tenant)
{
    int64_t evicted = 0;
    for (auto &l : lines_) {
        if (!l.validTag || l.tenant != tenant || l.pins > 0)
            continue;
        evictLine(l);
        ++evicted;
    }
    return evicted;
}

void
MCache::restoreLine(int64_t entry_id, const Signature &sig,
                    uint64_t epoch, int tenant)
{
    Line &l = line(entry_id);
    if (l.validTag)
        panic("MCACHE restore into an occupied line: entry ", entry_id);
    l.tag = sig;
    l.validTag = true;
    l.epoch = epoch;
    l.tenant = tenant;
    l.pins = 0;
    noteInstalled(entry_id);
}

} // namespace mercury
