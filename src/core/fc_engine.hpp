/**
 * @file
 * Functional fully connected layer with MERCURY reuse (§III-C3).
 *
 * Input rows of a minibatch are hashed; a row whose signature HITs
 * receives every weight-column result from the "earlier PE" that owns
 * the matching signature instead of recomputing the dot products.
 *
 * forward() runs one detection pass over the minibatch (on a pool,
 * later blocks hash while the driving thread probes earlier ones),
 * then computes the owner rows and copies each HIT row from its owner
 * (owners are always computed rows, so forwarding chains have depth
 * one). Outputs, owner maps, and statistics are bit-identical with
 * and without a pool. forward() itself is single-caller: one thread
 * drives an engine (or a shared frontend) at a time.
 */

#ifndef MERCURY_CORE_FC_ENGINE_HPP
#define MERCURY_CORE_FC_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mcache.hpp"
#include "core/reuse_runtime.hpp"
#include "pipeline/detection_frontend.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/** Functional FC-layer engine with MERCURY computation reuse. */
class FcEngine
{
  public:
    /**
     * @param cache    MCACHE instance (only its tag machinery is
     *                 used; whole output rows live in the forwarding
     *                 buffer as in §III-C3)
     * @param sig_bits signature length
     * @param seed     per-layer projection seed
     * @param pipe     pipeline knobs for the internal front-end
     */
    FcEngine(MCache &cache, int sig_bits, uint64_t seed,
             const PipelineConfig &pipe = {});

    /** Run through a shared detection front-end. */
    FcEngine(DetectionFrontend &frontend, int sig_bits);

    /**
     * Reuse-enabled product: (N, D) x (D, M) -> (N, M).
     *
     * @param owner_rows filled with the owner row index each input
     *        row's result came from (own index when computed); lets
     *        tests verify the forwarding pattern. May be null.
     * @param record when non-null, cleared and filled with the
     *        minibatch's single detection pass for the backward
     *        replay (§III-C2)
     */
    Tensor forward(const Tensor &input, const Tensor &weight,
                   ReuseStats &stats,
                   std::vector<int64_t> *owner_rows = nullptr,
                   SignatureRecord *record = nullptr);

    /**
     * Input-gradient pass with replayed reuse (§III-C2):
     * (N, M) x (D, M)^T -> (N, D). The record captured by forward()
     * decides the skip set — a forward-HIT row receives its owner
     * row's input-gradient row instead of recomputing the M x D
     * products (the same "earlier PE" forwarding as forward, §III-C3).
     * Bit-identical to matmulTransposeB(grad, weight) when the record
     * holds no hits.
     */
    Tensor backwardInput(const Tensor &grad, const Tensor &weight,
                         const SignatureRecord &record, ReuseStats &stats);

    /**
     * Weight-gradient pass with replayed reuse (§III-C2, Eq. 1):
     * dW = Xt G = Σ_i x_i ⊗ g_i over the minibatch rows. A
     * forward-HIT row's contribution factors through its owner's
     * input row as x_owner ⊗ (Σ g over the owner's hit-group) —
     * sum-then-multiply, one outer product per group. Bit-identical
     * to matmul(transpose2d(input), grad) when the record holds no
     * hits; exact up to float-summation order of the grouped gradient
     * rows otherwise.
     *
     * @param input the forward minibatch input (N, D)
     * @param grad  the output gradient (N, M)
     */
    Tensor backwardWeights(const Tensor &input, const Tensor &grad,
                           const SignatureRecord &record,
                           ReuseStats &stats);

    /** Signature length this engine detects with. */
    int signatureBits() const { return frontend_.signatureBits(); }

  private:
    FrontendHandle frontend_;
};

} // namespace mercury

#endif // MERCURY_CORE_FC_ENGINE_HPP
