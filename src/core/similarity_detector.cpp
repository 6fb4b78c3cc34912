#include "core/similarity_detector.hpp"

#include <unordered_set>

#include "util/logging.hpp"

namespace mercury {

int64_t
DetectionResult::uniqueVectors() const
{
    // Each MAU created a distinct signature entry; MNU vectors were
    // distinct from everything cached but could collide among
    // themselves, so MAU is the detector's unique-vector estimate.
    return hitmap.mix().mau;
}

SimilarityDetector::SimilarityDetector(const RPQEngine &rpq, MCache &cache,
                                       int bits)
    : rpq_(rpq), cache_(cache), bits_(bits)
{
    if (bits <= 0 || bits > rpq.maxBits())
        panic("signature bits ", bits, " outside engine range 1..",
              rpq.maxBits());
}

DetectionResult
SimilarityDetector::detect(const Tensor &rows) const
{
    if (rows.rank() != 2 || rows.dim(1) != rpq_.vectorDim())
        panic("detect expects (n, ", rpq_.vectorDim(), ") got ",
              rows.shapeStr());
    cache_.clear();
    const int64_t n = rows.dim(0);
    DetectionResult res;
    res.hitmap.reset(n);
    for (int64_t i = 0; i < n; ++i) {
        Signature sig = rpq_.signatureOfRow(rows, i, bits_);
        const McacheResult r = cache_.lookupOrInsert(sig);
        res.hitmap.record(i, r);
        res.table.append(std::move(sig), r.entryId);
    }
    return res;
}

} // namespace mercury
