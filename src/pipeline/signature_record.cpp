#include "pipeline/signature_record.hpp"

#include <climits>
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
    // Swapped, not moved: passes_ keeps its own capacity too.
    std::swap(passes_, spare_);
    passes_.clear();
    dataVersions_ = 0;
    entries_ = 0;
}

SignatureRecord::Pass
SignatureRecord::takeSpare()
{
    if (spare_.empty())
        return {};
    Pass p = std::move(spare_.back());
    spare_.pop_back();
    return p;
}

const char *
SignatureRecord::rowFault(uint8_t outcome, int32_t entry, int64_t entries)
{
    if (rowSound(outcome, entry, entries))
        return nullptr;
    // An outcome in range leaves the entry id at fault: HIT/MAU rows
    // name a cache entry, MNU rows none.
    return outcome > static_cast<uint8_t>(McacheOutcome::Mnu)
               ? "pass outcome out of range"
               : "pass entry id out of range";
}

namespace {

/** Panic naming row i of `p`, which no probe can have produced. */
[[noreturn]] void
rowPanic(const SignatureRecord::Pass &p, int32_t i, int64_t entries,
         const char *what)
{
    const uint8_t out = p.outcomes[static_cast<size_t>(i)];
    const int32_t id = p.entryIds[static_cast<size_t>(i)];
    if (const char *why = SignatureRecord::rowFault(out, id, entries))
        panic(what, " row ", i, ": ", why, " (outcome ",
              static_cast<int>(out), ", entry ", id, ", ", entries,
              " entries)");
    panic(what, " row ", i, ": owner ", p.owners[static_cast<size_t>(i)],
          " is not an earlier computing row of a HIT");
}

} // namespace

void
SignatureRecord::checkPass(Pass &p, int64_t entries, const char *what)
{
    const size_t rows = static_cast<size_t>(p.rows);
    if (p.rows < 0 || p.rows > INT32_MAX || p.outcomes.size() != rows ||
        p.entryIds.size() != rows ||
        p.sigWordsPerRow != Signature::wordsFor(p.bits) ||
        p.sigWords.size() != rows * static_cast<size_t>(p.sigWordsPerRow))
        panic(what, " pass of ", p.rows, " rows holds ", p.outcomes.size(),
              " outcomes, ", p.entryIds.size(), " entry ids and ",
              p.sigWords.size(), " words at ", p.sigWordsPerRow,
              " words per ", p.bits, "-bit row");
    // One walk over the rows: the probe's rule per row (rowSound), then
    // the owner map — OwnerTable's when the pass has none, checked when
    // supplied. The checks of a supplied map fold into one flag without
    // a branch per row (a probe's outcomes come in no predictable
    // order); a flagged pass is walked again only to name its first bad
    // row.
    if (!p.owners.empty() && p.owners.size() != rows)
        panic(what, " pass of ", p.rows, " rows has an owner map of ",
              p.owners.size());
    const uint8_t kHit = static_cast<uint8_t>(McacheOutcome::Hit);
    const uint8_t *outcomes = p.outcomes.data();
    const int32_t *ids = p.entryIds.data();
    const auto row_bad = [&](int32_t i) {
        return !rowSound(outcomes[i], ids[i], entries);
    };
    const int32_t n = static_cast<int32_t>(p.rows);
    int64_t forwarded = 0;
    if (p.owners.empty()) {
        p.owners.resize(rows);
        OwnerTable table(entries);
        for (int32_t i = 0; i < n; ++i) {
            if (row_bad(i))
                rowPanic(p, i, entries, what);
            const int32_t o = table.ownerOf(
                i, static_cast<McacheOutcome>(outcomes[i]), ids[i]);
            p.owners[static_cast<size_t>(i)] = o;
            forwarded += o != i;
        }
    } else {
        const int32_t *owners = p.owners.data();
        const auto owner_bad = [&](int32_t i) {
            // owners[i] is read as an index only once it lies in [0, i].
            const int32_t o = owners[i];
            const bool in_range =
                static_cast<uint32_t>(o) <= static_cast<uint32_t>(i);
            const int32_t at = in_range ? o : i;
            return !in_range | (owners[at] != at) |
                   ((o != i) & (outcomes[i] != kHit));
        };
        bool bad = false;
        for (int32_t i = 0; i < n; ++i) {
            bad |= row_bad(i) | owner_bad(i);
            forwarded += owners[i] != i;
        }
        for (int32_t i = 0; bad && i < n; ++i)
            if (row_bad(i) || owner_bad(i))
                rowPanic(p, i, entries, what);
    }
    p.forwarded = forwarded;
}

void
SignatureRecord::restore(std::vector<Pass> passes, int data_versions,
                         int64_t entries)
{
    if (data_versions <= 0 || entries <= 0)
        panic("record restore needs positive versions/entries, got ",
              data_versions, "/", entries);
    for (Pass &p : passes)
        checkPass(p, entries, "restored");
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
    checkPass(pass, entries, "appended");
    dataVersions_ = data_versions;
    entries_ = entries;
    passes_.push_back(std::move(pass));
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
