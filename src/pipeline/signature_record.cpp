#include "pipeline/signature_record.hpp"

#include "util/logging.hpp"

namespace mercury {

Signature
SignatureRecord::Pass::signatureOf(int64_t i) const
{
    if (i < 0 || i >= rows)
        panic("signature row ", i, " outside recorded pass of ", rows);
    return Signature::fromWords(
        bits, sigWords.data() + static_cast<size_t>(i) *
                                    static_cast<size_t>(sigWordsPerRow));
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
    p.sigWords.resize(static_cast<size_t>(p.rows) *
                      static_cast<size_t>(p.sigWordsPerRow));
    p.entryIds.resize(static_cast<size_t>(p.rows));
    p.outcomes.resize(static_cast<size_t>(p.rows));
    for (int64_t i = 0; i < p.rows; ++i) {
        const Signature &sig = det.table.signature(i);
        if (sig.bits() != bits)
            panic("pass signature length ", sig.bits(),
                  " differs from recorded bits ", bits);
        // Signature keeps the bits past its length zero, so its packed
        // words are the record's words as they are.
        uint64_t *words =
            p.sigWords.data() + static_cast<size_t>(i) *
                                    static_cast<size_t>(p.sigWordsPerRow);
        for (int w = 0; w < p.sigWordsPerRow; ++w)
            words[w] = sig.packedWord(w);
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
