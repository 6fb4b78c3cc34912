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
 *    data-version map), so the backward filter passes group their
 *    in-flight filters exactly like the forward ones did.
 *
 * A record accumulates one Pass per forward detection pass of a layer
 * invocation — one per (image, channel) for convolution, one per
 * minibatch for FC, one per sample for attention — in forward
 * execution order. The backward engines consume the passes in the
 * same order as ReuseRuntime replay sources: each reads its owners
 * from the record (ownersOf), and the runtime streams the pass's row
 * ranges with zero hashing or probing cycles.
 *
 * Lifetime contract: a record is valid for the backward pass of the
 * forward invocation that captured it, and must be re-captured every
 * forward pass (a new minibatch produces new outcomes). Capturing
 * copies everything out of the DetectionResult, so the record does
 * not alias pipeline or MCACHE state; replay never touches the
 * MCACHE, so records survive later forward passes of other layers
 * sharing the cache.
 */

#ifndef MERCURY_PIPELINE_SIGNATURE_RECORD_HPP
#define MERCURY_PIPELINE_SIGNATURE_RECORD_HPP

#include <cstdint>
#include <vector>

#include "core/mcache.hpp"
#include "core/signature.hpp"
#include "core/similarity_detector.hpp"

namespace mercury {

/** Saved detection results of one layer's forward pass (§III-C2). */
class SignatureRecord
{
  public:
    /** One recorded detection pass in forward execution order. */
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
     * In-flight filter slots of the MCACHE the record was captured
     * against: the backward filter passes keep the same number of
     * filters in flight (one grad-column buffer per slot).
     */
    int dataVersions() const { return dataVersions_; }

    /** Entry count of the capturing MCACHE (sizes the owner maps). */
    int64_t entries() const { return entries_; }

    /** Drop every pass (a new forward invocation begins). */
    void clear();

    /**
     * Append one pass captured from a finished detection result.
     * Copies signatures (bit-packed) and outcomes; the DetectionResult
     * may die afterwards. Every pass of one record must come from the
     * same cache organization (entries / data versions).
     */
    void capturePass(const DetectionResult &det, int bits,
                     int data_versions, int64_t entries);

    /**
     * Reconstruct the owner map of a pass: owner[i] == i when row i
     * computed (MAU / MNU / HIT on a never-deposited entry), otherwise
     * the earlier row whose result row i reused. Owners are always
     * computed rows (the first MAU row of an entry), so reuse chains
     * have depth one — the §III-C3 "earlier PE" discipline.
     */
    void ownersOf(const Pass &p, std::vector<int64_t> &owner) const;

    /** Bytes this record would spill to memory between passes. */
    uint64_t storageBytes() const;

    /**
     * Snapshot hook (serve/snapshot.cpp): replace the contents with
     * externally restored passes. The passes must share one cache
     * organization, exactly as capturePass enforces.
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
