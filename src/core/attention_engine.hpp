/**
 * @file
 * Functional attention layer with MERCURY reuse (§III-C4).
 *
 * For input rows X (seq_len x embed_dim) the layer computes
 * W = X Xt followed by Y = W X. Both products are driven by the
 * similarity of X's rows: a row x_i similar to an earlier x_j yields
 * similar W and Y rows, so HIT rows copy the owner's rows in both
 * stages — the same FC-style forwarding the paper applies.
 *
 * forward() runs one detection pass over the token rows (on a pool,
 * later blocks hash while the driving thread probes earlier ones),
 * then computes the owner rows — a computed row is self-contained: w_i
 * needs only X, y_i needs only w_i — and copies each HIT row's Y row
 * from its owner. The dX replay fans its owner rows out over the
 * pool. Output and statistics are bit-identical with and without a
 * pool. One thread drives an engine (or a shared frontend) at a time.
 */

#ifndef MERCURY_CORE_ATTENTION_ENGINE_HPP
#define MERCURY_CORE_ATTENTION_ENGINE_HPP

#include <memory>

#include "core/mcache.hpp"
#include "core/reuse_runtime.hpp"
#include "pipeline/detection_frontend.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/** Functional attention engine with MERCURY computation reuse. */
class AttentionEngine
{
  public:
    /**
     * Run through a caller-provided MCACHE: builds an internal
     * DetectionFrontend over it.
     *
     * @param cache    MCACHE instance (tag machinery only; whole
     *                 output rows travel by FC-style forwarding)
     * @param sig_bits signature length for detection
     * @param seed     seed for the per-layer random projection
     * @param pipe     pipeline knobs for the internal front-end
     */
    AttentionEngine(MCache &cache, int sig_bits, uint64_t seed,
                    const PipelineConfig &pipe = {});

    /** Run through a shared detection front-end. */
    AttentionEngine(DetectionFrontend &frontend, int sig_bits);

    /**
     * Reuse-enabled attention: X (T, D) -> Y (T, D) via W = X Xt,
     * Y = W X. One detection pass over X's rows drives both stages.
     *
     * @param record when non-null, the sample's detection pass is
     *        appended for the backward replay (§III-C2). The caller
     *        clears the record once per forward invocation (the layer
     *        runs one engine pass per sample into one record).
     */
    Tensor forward(const Tensor &x, ReuseStats &stats,
                   SignatureRecord *record = nullptr);

    /**
     * Input-gradient pass with replayed reuse (§III-C2): computes
     * dL/dX of Y = (X Xt) X row by row — a forward-HIT token row
     * receives its owner row's gradient row instead of recomputing
     * its three gradient terms. `g` is the (T, D) output gradient of
     * the sample (pre-scaled exactly as the exact path scales it),
     * `pass_index` selects the sample's recorded pass. Bit-identical
     * to the exact factorized backward when the pass holds no hits.
     *
     * When `xtx` is non-null it is used as the sample's shared
     * projection factor Xt X instead of recomputing it — pass the
     * result of backwardProjection() to ride the weight-gradient
     * replay; the projection's t*d*d MACs are then charged by that
     * call, not here.
     */
    Tensor backward(const Tensor &x, const Tensor &g,
                    const SignatureRecord &record, int64_t pass_index,
                    ReuseStats &stats, const Tensor *xtx = nullptr);

    /**
     * Projection-gradient factor with replayed reuse (§III-C2 applied
     * to the dW-shaped reduction of the layer): Xt X = Σ_t x_t ⊗ x_t
     * is the weight-gradient analogue of the parameter-free attention
     * formulation — the (D, D) factor backprop multiplies every
     * gradient row through. A forward-HIT token row's outer product
     * factors through its owner as x_owner ⊗ (Σ x over the owner's
     * hit-group) — sum-then-multiply, one multiply per group.
     * Bit-identical to matmul(transpose2d(x), x) when the pass holds
     * no hits; exact up to float-summation order of the grouped token
     * rows otherwise.
     */
    Tensor backwardProjection(const Tensor &x,
                              const SignatureRecord &record,
                              int64_t pass_index, ReuseStats &stats);

    /** Signature length this engine detects with. */
    int signatureBits() const { return frontend_.signatureBits(); }

  private:
    FrontendHandle frontend_;
};

} // namespace mercury

#endif // MERCURY_CORE_ATTENTION_ENGINE_HPP
