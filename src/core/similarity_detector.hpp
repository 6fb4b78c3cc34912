/**
 * @file
 * Similarity detection pass (§III-B): before any computation with
 * weights, every extracted input vector is hashed with RPQ, presented
 * to MCACHE, and its outcome recorded in the Hitmap and Signature
 * Table. This module is the functional front half of MERCURY; the
 * reuse engines consume its outputs.
 */

#ifndef MERCURY_CORE_SIMILARITY_DETECTOR_HPP
#define MERCURY_CORE_SIMILARITY_DETECTOR_HPP

#include <cstdint>

#include "core/hitmap.hpp"
#include "core/mcache.hpp"
#include "core/rpq.hpp"
#include "core/signature_table.hpp"
#include "sim/dataflow.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/** Result of one detection pass over a vector population. */
struct DetectionResult
{
    Hitmap hitmap;
    SignatureTable table;

    /** Aggregate counts for the timing model. */
    HitMix mix() const { return hitmap.mix(); }

    /** Distinct signatures inserted (unique-vector estimate). */
    int64_t uniqueVectors() const;
};

/** Runs RPQ + MCACHE over vector populations. */
class SimilarityDetector
{
  public:
    /**
     * @param rpq    signature engine for this vector dimension
     * @param cache  MCACHE instance (cleared at the start of a pass)
     * @param bits   current signature length
     */
    SimilarityDetector(const RPQEngine &rpq, MCache &cache, int bits);

    int signatureBits() const { return bits_; }

    /**
     * Detect similarity over the rows of a (num_vectors, d) matrix.
     * Clears the cache first (a new set of input vectors arrived,
     * §III-B3) and fills the hitmap and signature table in vector
     * order.
     */
    DetectionResult detect(const Tensor &rows) const;

  private:
    const RPQEngine &rpq_;
    MCache &cache_;
    int bits_;
};

} // namespace mercury

#endif // MERCURY_CORE_SIMILARITY_DETECTOR_HPP
