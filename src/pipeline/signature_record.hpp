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
 * order with zero hashing or probing cycles: each reads the pass's
 * owner map (Pass::owners), then computes owner rows with a dense
 * kernel and lets HIT rows take their owner's result.
 *
 * A Pass is also the detection pipeline's own result: the hash job
 * writes the packed words into it, the probe fills the outcomes,
 * entry ids, owner map and mix, and capture moves it into the record
 * (append), so nothing is copied between the probe and the record.
 * The owner map is host-side and derived from the outcomes and entry
 * ids (OwnerTable, core/mcache.hpp): storageBytes() leaves it out, and
 * snapshots do not carry it (restore derives it again).
 *
 * Lifetime contract: a record is valid for the backward pass of the
 * forward invocation that captured it, and must be re-captured every
 * forward pass (a new minibatch produces new outcomes). A captured
 * pass is owned by the record, which aliases no pipeline or MCACHE
 * state; replay never touches the MCACHE, so records survive later
 * forward passes of other layers sharing the cache.
 *
 * Storage outlives the pass: clear() keeps the dropped passes' vectors
 * as spares, and the next forward hands each to the frontend
 * (takeSpare, DetectionFrontend::beginHashStream's storage), so a
 * layer's steady-state forward refills the buffers its previous
 * forward captured instead of allocating per pass.
 */

#ifndef MERCURY_PIPELINE_SIGNATURE_RECORD_HPP
#define MERCURY_PIPELINE_SIGNATURE_RECORD_HPP

#include <cstdint>
#include <vector>

#include "core/mcache.hpp"
#include "core/signature.hpp"
#include "sim/dataflow.hpp"

namespace mercury {

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
        /**
         * Owner map under OwnerTable's rule: owners[i] == i when row i
         * computed, otherwise the earlier row whose result row i
         * reuses. The probe fills it; every replay reads it.
         */
        std::vector<int32_t> owners;
        /** Rows with owners[i] != i. */
        int64_t forwarded = 0;
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

        int32_t owner(int64_t i) const
        {
            return owners[static_cast<size_t>(i)];
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

    /**
     * Drop every pass (a new forward invocation begins). Their storage
     * stays with the record as spares for takeSpare(); the spares of
     * an earlier clear() that were not taken are freed.
     */
    void clear();

    /**
     * The storage of a pass clear() dropped — its vectors keep their
     * capacity and hold stale contents — or an empty pass when no
     * spare is left. A capture refills it (DetectionFrontend::
     * beginHashStream's storage) and appends it again.
     */
    Pass takeSpare();

    /**
     * Capture one finished detection pass by moving it in. Every pass
     * of one record must come from the same cache organization
     * (entries / data versions). The pass must be one a probe can
     * produce, or append panics naming the row: outcomes, entry ids
     * and words sized to its rows, every row sound under rowFault,
     * and a supplied owner map structurally sound (each owner at or
     * before its row and owning itself, only HIT rows forwarding). A
     * pass without an owner map gets OwnerTable's.
     */
    void append(Pass &&pass, int data_versions, int64_t entries);

    /**
     * True when a row with this outcome byte and entry id can come from
     * a probe of a cache of `entries` entries: the outcome is a
     * McacheOutcome, HIT and MAU ids lie in [0, entries) and MNU ids
     * are -1. append, restore and (through rowFault) Snapshot::parse
     * apply this one rule. Written without branches: a probe's
     * outcomes come in no predictable order.
     */
    static bool rowSound(uint8_t outcome, int32_t entry, int64_t entries)
    {
        const uint8_t mnu = static_cast<uint8_t>(McacheOutcome::Mnu);
        const bool is_mnu = outcome == mnu;
        const bool in_cache =
            static_cast<uint64_t>(static_cast<int64_t>(entry)) <
            static_cast<uint64_t>(entries);
        return (outcome <= mnu) &
               ((is_mnu & (entry == -1)) | (!is_mnu & in_cache));
    }

    /** What a row breaks of rowSound's rule, or nullptr when sound. */
    static const char *rowFault(uint8_t outcome, int32_t entry,
                                int64_t entries);

    /** Bytes this record would spill to memory between passes. */
    uint64_t storageBytes() const;

    /**
     * Snapshot hook (serve/snapshot.cpp): replace the contents with
     * externally restored passes, checked as append checks them. A
     * pass without an owner map (a parsed snapshot carries none) gets
     * OwnerTable's.
     */
    void restore(std::vector<Pass> passes, int data_versions,
                 int64_t entries);

  private:
    std::vector<Pass> passes_;
    std::vector<Pass> spare_; ///< storage of the passes clear() dropped
    int dataVersions_ = 0;
    int64_t entries_ = 0;

    /** append's checks, deriving the owner map when `p` has none. */
    static void checkPass(Pass &p, int64_t entries, const char *what);
};

} // namespace mercury

#endif // MERCURY_PIPELINE_SIGNATURE_RECORD_HPP
