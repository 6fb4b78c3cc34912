#include "pipeline/signature_record.hpp"

#include "util/logging.hpp"

namespace mercury {

Signature
SignatureRecord::Pass::signatureOf(int64_t i) const
{
    if (i < 0 || i >= rows)
        panic("signature row ", i, " outside recorded pass of ", rows);
    Signature sig(bits);
    const uint64_t *words =
        sigWords.data() + static_cast<size_t>(i) *
                              static_cast<size_t>(sigWordsPerRow);
    for (int b = 0; b < bits; ++b)
        sig.setBit(b, (words[b / 64] >> (b % 64)) & 1u);
    return sig;
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
SignatureRecord::capturePass(const DetectionResult &det, int bits,
                             int data_versions, int64_t entries)
{
    if (bits <= 0 || data_versions <= 0 || entries <= 0)
        panic("capturePass needs positive bits/versions/entries, got ",
              bits, "/", data_versions, "/", entries);
    if (!passes_.empty() &&
        (dataVersions_ != data_versions || entries_ != entries)) {
        panic("record passes span different cache organizations: ",
              dataVersions_, "v/", entries_, " then ", data_versions,
              "v/", entries);
    }
    dataVersions_ = data_versions;
    entries_ = entries;

    Pass p;
    p.rows = det.hitmap.size();
    p.bits = bits;
    p.sigWordsPerRow = (bits + 63) / 64;
    p.sigWords.assign(static_cast<size_t>(p.rows) *
                          static_cast<size_t>(p.sigWordsPerRow),
                      0);
    p.entryIds.resize(static_cast<size_t>(p.rows));
    p.outcomes.resize(static_cast<size_t>(p.rows));
    for (int64_t i = 0; i < p.rows; ++i) {
        const Signature &sig = det.table.signature(i);
        if (sig.bits() != bits)
            panic("pass signature length ", sig.bits(),
                  " differs from recorded bits ", bits);
        uint64_t *words =
            p.sigWords.data() + static_cast<size_t>(i) *
                                    static_cast<size_t>(p.sigWordsPerRow);
        for (int b = 0; b < bits; ++b) {
            if (sig.bit(b))
                words[b / 64] |= uint64_t{1} << (b % 64);
        }
        const int64_t entry = det.hitmap.entryId(i);
        if (entry >= entries)
            panic("entry id ", entry, " outside recorded cache of ",
                  entries, " entries");
        p.entryIds[static_cast<size_t>(i)] = static_cast<int32_t>(entry);
        p.outcomes[static_cast<size_t>(i)] =
            static_cast<uint8_t>(det.hitmap.outcome(i));
    }
    p.mix = det.mix();
    passes_.push_back(std::move(p));
}

void
SignatureRecord::ownersOf(const Pass &p, std::vector<int64_t> &owner) const
{
    owner.assign(static_cast<size_t>(p.rows), -1);
    std::vector<int64_t> owner_of_entry(static_cast<size_t>(entries_), -1);
    for (int64_t i = 0; i < p.rows; ++i) {
        owner[static_cast<size_t>(i)] = i;
        const McacheOutcome oc = p.outcome(i);
        const int64_t entry = p.entryId(i);
        if (oc == McacheOutcome::Hit &&
            owner_of_entry[static_cast<size_t>(entry)] >= 0) {
            owner[static_cast<size_t>(i)] =
                owner_of_entry[static_cast<size_t>(entry)];
        } else if (oc == McacheOutcome::Mau) {
            owner_of_entry[static_cast<size_t>(entry)] = i;
        }
    }
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
