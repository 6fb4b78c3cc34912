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
    return lookupOrInsertInSet(setIndexOf(sig), sig);
}

McacheResult
MCache::lookupOrInsertInSet(int set, const Signature &sig)
{
    if (set < 0 || set >= sets_)
        panic("set index ", set, " out of range 0..", sets_ - 1);
    const int64_t base = static_cast<int64_t>(set) * ways_;

    // Tag search among valid ways.
    for (int w = 0; w < ways_; ++w) {
        Line &l = lines_[static_cast<size_t>(base + w)];
        if (l.validTag && l.tag == sig) {
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
            l.tag = sig;
            l.validTag = true;
            l.epoch = epoch_;
            l.tenant = insertTenant_;
            ++stats_.mau;
            ++insertBacklog_[static_cast<size_t>(set)];
            return {McacheOutcome::Mau, base + w};
        }
    }
    ++stats_.mnu;
    return {McacheOutcome::Mnu, -1};
}

void
MCache::clear()
{
    for (auto &l : lines_) {
        if (l.validTag && quotaGate_)
            quotaGate_->release(l.tenant);
        l.validTag = false;
        l.epoch = 0;
        l.tenant = -1;
        l.pins = 0;
    }
    std::fill(insertBacklog_.begin(), insertBacklog_.end(), 0);
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
}

} // namespace mercury
