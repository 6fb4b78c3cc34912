/**
 * @file
 * SignatureRecord: the compact per-layer artifact a forward detection
 * pass leaves behind for the backward pass (§III-C2).
 *
 * MERCURY pays for similarity detection once, on forward propagation.
 * The signatures and HIT/MAU/MNU outcomes it computed there are
 * exactly what the input-gradient pass needs to skip the same rows
 * again — re-running RPQ over the gradient vectors would both cost a
 * second detection pass and decide a *different* skip set. A
 * SignatureRecord therefore captures, per detection pass:
 *
 *  - the per-row signatures (bit-packed, not one heap allocation per
 *    Signature — an ImageNet-scale conv layer records millions of
 *    rows);
 *  - the per-row MCACHE outcome and entry id (the hit/owner
 *    decisions);
 *  - the MCACHE organization the pass ran against (entry count and
 *    data-version count): the entry count sizes the replay's owner
 *    table, and the cost model reads the data versions (Fig. 11).
 *
 * A record accumulates one Pass per forward detection pass of a layer
 * invocation — one per (image, channel) for convolution, one per
 * minibatch for FC, one per sample for attention — in forward
 * execution order. The backward engines replay the passes in the same
 * order with zero hashing or probing cycles: each resolves its owner
 * map from the record (ownersOf), then computes owner rows with a
 * dense kernel and lets HIT rows take their owner's result.
 *
 * A Pass is also the detection pipeline's own result: the hash job
 * writes the packed words into it, the probe fills the outcomes,
 * entry ids and mix, and capture moves it into the record (append),
 * so nothing is copied between the probe and the record.
 *
 * Lifetime contract: a record is valid for the backward pass of the
 * forward invocation that captured it, and must be re-captured every
 * forward pass (a new minibatch produces new outcomes). A captured
 * pass is owned by the record, which aliases no pipeline or MCACHE
 * state; replay never touches the MCACHE, so records survive later
 * forward passes of other layers sharing the cache.
 */

#ifndef MERCURY_PIPELINE_SIGNATURE_RECORD_HPP
#define MERCURY_PIPELINE_SIGNATURE_RECORD_HPP

#include <cstdint>
#include <vector>

#include "core/mcache.hpp"
#include "core/signature.hpp"
#include "sim/dataflow.hpp"

namespace mercury {

/**
 * The owner rule of one detection pass (§III-C3, the "earlier PE"),
 * with storage reused across passes. A row that HITs an entry an
 * earlier row of the same pass installed (MAU) is owned by that row —
 * the latest such row, if the entry was installed twice; every other
 * row (MAU, MNU, or a HIT on an entry no row of this pass installed)
 * owns itself. Owners are therefore always rows that compute, and
 * forwarding chains have depth one.
 *
 * Rows are fed in stream order, one pass at a time; nextPass() then
 * forgets only the entries that pass installed, so a table sized once
 * to the cache's entry count serves every pass of an engine call. The
 * live forward passes and the recorded replays (SignatureRecord::
 * ownersOf) apply the rule through this one class.
 */
class OwnerTable
{
  public:
    /** Empty table over `entries` MCACHE entries. */
    explicit OwnerTable(int64_t entries)
        : ownerOfEntry_(static_cast<size_t>(entries), -1)
    {
    }

    int64_t entries() const
    {
        return static_cast<int64_t>(ownerOfEntry_.size());
    }

    /** Owner of `row`, given its outcome and entry id (stream order). */
    int64_t ownerOf(int64_t row, McacheOutcome outcome, int64_t entry)
    {
        if (outcome == McacheOutcome::Hit) {
            const int64_t o = ownerOfEntry_[static_cast<size_t>(entry)];
            return o >= 0 ? o : row;
        }
        if (outcome == McacheOutcome::Mau) {
            int64_t &o = ownerOfEntry_[static_cast<size_t>(entry)];
            if (o < 0)
                installed_.push_back(entry);
            o = row;
        }
        return row;
    }

    /** Begin the next pass: forget the entries the last one installed. */
    void nextPass()
    {
        for (const int64_t e : installed_)
            ownerOfEntry_[static_cast<size_t>(e)] = -1;
        installed_.clear();
    }

  private:
    std::vector<int64_t> ownerOfEntry_; ///< -1, or the installing row
    std::vector<int64_t> installed_;    ///< entries set this pass
};

/** Saved detection results of one layer's forward pass (§III-C2). */
class SignatureRecord
{
  public:
    /**
     * One detection pass: a record holds them in forward execution
     * order, and the detection frontend returns one per pass.
     */
    struct Pass
    {
        int64_t rows = 0;          ///< vectors the pass hashed
        int bits = 0;              ///< signature length of the pass
        int sigWordsPerRow = 0;    ///< 64-bit words per packed signature
        /** Bit-packed signatures, rows * sigWordsPerRow words. */
        std::vector<uint64_t> sigWords;
        /** MCACHE entry id per row (-1 for MNU). */
        std::vector<int32_t> entryIds;
        /** McacheOutcome per row, stored as one byte. */
        std::vector<uint8_t> outcomes;
        /** Aggregate mix of the pass (for backward statistics). */
        HitMix mix;

        McacheOutcome outcome(int64_t i) const
        {
            return static_cast<McacheOutcome>(
                outcomes[static_cast<size_t>(i)]);
        }

        int64_t entryId(int64_t i) const
        {
            return entryIds[static_cast<size_t>(i)];
        }

        /** Packed words of row i's signature (sigWordsPerRow of them). */
        const uint64_t *wordsOf(int64_t i) const
        {
            return sigWords.data() + static_cast<size_t>(i) *
                                         static_cast<size_t>(sigWordsPerRow);
        }

        /** Unpack the signature of row i (tests / diagnostics). */
        Signature signatureOf(int64_t i) const;
    };

    SignatureRecord() = default;

    int64_t passCount() const
    {
        return static_cast<int64_t>(passes_.size());
    }

    const Pass &pass(int64_t i) const;

    /**
     * Data versions of the MCACHE the record was captured against
     * (the cost model's Fig. 11 in-flight filter count; snapshots
     * carry it).
     */
    int dataVersions() const { return dataVersions_; }

    /** Entry count of the capturing MCACHE (sizes the owner tables). */
    int64_t entries() const { return entries_; }

    /** Drop every pass (a new forward invocation begins). */
    void clear();

    /**
     * Capture one finished detection pass by moving it in. Every pass
     * of one record must come from the same cache organization
     * (entries / data versions), and name entries below `entries`.
     */
    void append(Pass &&pass, int data_versions, int64_t entries);

    /**
     * Reconstruct the owner map of a pass under OwnerTable's rule:
     * owner[i] == i when row i computed, otherwise the earlier row
     * whose result row i reused. `table` must span entries(); it is
     * left ready for the next pass. Returns the number of forwarded
     * rows (owner[i] != i).
     */
    int64_t ownersOf(const Pass &p, OwnerTable &table,
                     std::vector<int64_t> &owner) const;

    /** Bytes this record would spill to memory between passes. */
    uint64_t storageBytes() const;

    /**
     * Snapshot hook (serve/snapshot.cpp): replace the contents with
     * externally restored passes. The passes must share one cache
     * organization, exactly as append enforces.
     */
    void restore(std::vector<Pass> passes, int data_versions,
                 int64_t entries);

  private:
    std::vector<Pass> passes_;
    int dataVersions_ = 0;
    int64_t entries_ = 0;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_SIGNATURE_RECORD_HPP
