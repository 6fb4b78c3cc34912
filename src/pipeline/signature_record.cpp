#include "pipeline/signature_record.hpp"

#include <utility>

#include "util/logging.hpp"

namespace mercury {

Signature
SignatureRecord::Pass::signatureOf(int64_t i) const
{
    if (i < 0 || i >= rows)
        panic("signature row ", i, " outside recorded pass of ", rows);
    return Signature::fromWords(bits, wordsOf(i));
}

const SignatureRecord::Pass &
SignatureRecord::pass(int64_t i) const
{
    if (i < 0 || i >= passCount())
        panic("record pass ", i, " outside ", passCount(),
              " captured passes");
    return passes_[static_cast<size_t>(i)];
}

void
SignatureRecord::clear()
{
    passes_.clear();
    dataVersions_ = 0;
    entries_ = 0;
}

void
SignatureRecord::restore(std::vector<Pass> passes, int data_versions,
                         int64_t entries)
{
    if (data_versions <= 0 || entries <= 0)
        panic("record restore needs positive versions/entries, got ",
              data_versions, "/", entries);
    passes_ = std::move(passes);
    dataVersions_ = data_versions;
    entries_ = entries;
}

void
SignatureRecord::append(Pass &&pass, int data_versions, int64_t entries)
{
    if (pass.bits <= 0 || data_versions <= 0 || entries <= 0)
        panic("record append needs positive bits/versions/entries, got ",
              pass.bits, "/", data_versions, "/", entries);
    if (!passes_.empty() &&
        (dataVersions_ != data_versions || entries_ != entries)) {
        panic("record passes span different cache organizations: ",
              dataVersions_, "v/", entries_, " then ", data_versions,
              "v/", entries);
    }
    for (const int32_t entry : pass.entryIds)
        if (entry >= entries)
            panic("entry id ", entry, " outside recorded cache of ",
                  entries, " entries");
    dataVersions_ = data_versions;
    entries_ = entries;
    passes_.push_back(std::move(pass));
}

int64_t
SignatureRecord::ownersOf(const Pass &p, OwnerTable &table,
                          std::vector<int64_t> &owner) const
{
    if (table.entries() != entries_)
        panic("owner table spans ", table.entries(),
              " entries, the record's cache ", entries_);
    owner.resize(static_cast<size_t>(p.rows));
    int64_t forwarded = 0;
    for (int64_t i = 0; i < p.rows; ++i) {
        const int64_t o = table.ownerOf(i, p.outcome(i), p.entryId(i));
        owner[static_cast<size_t>(i)] = o;
        forwarded += o != i;
    }
    table.nextPass();
    return forwarded;
}

uint64_t
SignatureRecord::storageBytes() const
{
    uint64_t bytes = 0;
    for (const Pass &p : passes_) {
        bytes += static_cast<uint64_t>(p.sigWords.size()) * 8;
        bytes += static_cast<uint64_t>(p.entryIds.size()) * 4;
        bytes += static_cast<uint64_t>(p.outcomes.size());
    }
    return bytes;
}

} // namespace mercury
