/**
 * @file
 * Functional convolution with MERCURY reuse (§III-C1).
 *
 * For every (image, channel) the engine loads the input plane into a
 * conv frame (tensor/ops.hpp's ConvFrame) and runs the similarity
 * detector over its output positions: each position's kH x kW patch
 * is an input vector, and its signature bits are the signs of the
 * frame convolved with the random filters (Fig. 7a; no patch is ever
 * extracted). The probe resolves the pass's owner map (OwnerTable's
 * rule, carried in the pass): a HIT row takes the result of the
 * earlier row of the same pass that installed its MCACHE entry (MAU),
 * every other row owns itself. Owner rows compute all of the
 * channel's filter values in one sweep over its kernels, transposed
 * to (tap, filter), their patches read from the same frame — each
 * value summed tap-ascending from +0, the dot product the filter
 * would compute alone (the ownerValues kernel, one call per pass) —
 * and every row then adds its owner's values into the output
 * (ownerScatter). Results accumulate over channels
 * exactly like the baseline convolution, so the output differs from
 * the exact convolution only by the reuse-induced approximation —
 * which is what the accuracy experiments measure.
 *
 * Schedule (§III-B, Fig. 8): every channel pass runs detection to
 * the end (DetectionFrontend::finishStream — on a pool, later blocks
 * hash while the driving thread probes earlier ones), then computes
 * the pass's owner rows and adds every row's owner values into the
 * output on the driving thread. Right after a pass's probe the engine
 * loads the next channel's plane into the other of two frames and
 * begins its hash job over it (DetectionFrontend::beginHashStream's
 * conv frame source — no MCACHE state touched), so on a pool the next
 * pass hashes under this pass's computes and scatter, which read this
 * pass's frame. Without a pool the job defers its hashing into the
 * probe half. Every pass runs through one hash job and refills
 * recycled storage: the capturing record's spares, or the pass the
 * forward just finished. Outputs, hit/skip decisions, and statistics
 * are bit-identical either way.
 *
 * Backward (§III-C2): forward() optionally captures each channel
 * pass into a SignatureRecord; backwardInput() then replays the
 * input-gradient pass with the *same* reuse decisions and zero
 * detection cost. A forward-HIT row's products are go[owner] * w, so
 * each pass is the exact input gradient of its channel (a
 * one-channel convForward over the flipped kernels,
 * conv2dBackwardInput's body) of the output gradients gathered
 * through the pass's owner map into the bordered gradient frames
 * (ConvGradFrame::load, one kernel-table gather per pass for every
 * filter plane): every cell sums in (filter, y, x) order from +0, and
 * with zero hits the result is conv2dBackwardInput bit for bit. Passes write disjoint planes and fan out over the
 * frontend's pool, if it has one.
 *
 * Weight gradients (§III-C2 applied to Eq. 1): backwardWeights()
 * replays the same record over dW = X ⊛ dY. A forward-HIT row's
 * contribution x_hit ⊗ dy_hit factors through the owner's patch as
 * x_owner ⊗ (Σ dy over the owner's hit-group), so each pass first
 * sums the output gradients of each hit-group (the groupSums kernel,
 * one call per pass: cheap adds, charged as per-group accumulate
 * cycles in the timing model) and then does one multiply per owner
 * (ownerWeightMul, reading the owner patches
 * from the plane's conv frame) — sum-then-multiply, every weight
 * element accumulating (image, owner) ascending from +0. With zero hits the
 * result is bit-identical to conv2dBackwardWeight; with hits it is
 * the exact dW up to the float-summation order of the grouped
 * gradient rows. (group, channel) pairs fan out over the frontend's
 * pool, if it has one.
 *
 * Thread-safety: forward(), backwardInput(), and backwardWeights()
 * are driven by one thread; the tasks they spawn hash disjoint row
 * blocks or write disjoint planes or weight slices. Two threads must
 * not call into one engine (or two engines sharing a frontend)
 * concurrently.
 * Grouped and depthwise convolutions (spec.groups > 1) are the same
 * passes over per-group filter ranges — no separate engine.
 *
 * The engine also reports the measured HIT/MAU/MNU mix and the MACs
 * skipped, which feed the timing model.
 */

#ifndef MERCURY_CORE_CONV_REUSE_ENGINE_HPP
#define MERCURY_CORE_CONV_REUSE_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mcache.hpp"
#include "core/reuse_runtime.hpp"
#include "pipeline/detection_frontend.hpp"
#include "sim/dataflow.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/** Functional conv-layer engine with MERCURY computation reuse. */
class ConvReuseEngine
{
  public:
    /**
     * Run through a caller-provided MCACHE: builds an internal
     * DetectionFrontend over it.
     *
     * @param cache    MCACHE instance to run through
     * @param sig_bits signature length for detection
     * @param seed     seed for the per-layer random projection
     * @param pipe     pipeline knobs (block size, threads)
     */
    ConvReuseEngine(MCache &cache, int sig_bits, uint64_t seed,
                    const PipelineConfig &pipe = {});

    /** Run through a shared detection front-end. */
    ConvReuseEngine(DetectionFrontend &frontend, int sig_bits);

    /**
     * Reuse-enabled forward convolution, channel by channel. Every
     * entry point checks its operands against `spec` as the exact ops
     * do (checkConvSpec and friends in tensor/ops.hpp) and panics on a
     * mismatch.
     *
     * @param input  (N, Cin, H, W)
     * @param weight (Cout, Cin/groups, kH, kW), kH == kW
     * @param bias   (Cout) or empty
     * @param stats  filled with the measured reuse statistics
     * @param record when non-null, cleared and then filled with one
     *        captured pass per (image, channel) in execution order,
     *        for the backward replay (§III-C2)
     */
    Tensor forward(const Tensor &input, const Tensor &weight,
                   const Tensor &bias, const ConvSpec &spec,
                   ReuseStats &stats, SignatureRecord *record = nullptr);

    /**
     * Input-gradient pass with replayed reuse (§III-C2): consumes the
     * record captured by forward() — in the same (image, channel)
     * order — so every forward-HIT row reuses its owner row's
     * products (booked as skipped MACs). Bit-identical to
     * conv2dBackwardInput when the record holds no hits.
     *
     * @param gradOut (N, Cout, outH(in_h), outW(in_w)) output gradient
     * @param weight  the forward weights
     * @param in_h    input height the gradient flows back to
     * @param in_w    input width
     * @param record  the forward pass's captured record
     * @param stats   filled with the backward reuse statistics
     */
    Tensor backwardInput(const Tensor &gradOut, const Tensor &weight,
                         const ConvSpec &spec, int64_t in_h, int64_t in_w,
                         const SignatureRecord &record, ReuseStats &stats);

    /**
     * Weight-gradient pass with replayed reuse (§III-C2, Eq. 1):
     * consumes the record captured by forward() — in the same
     * (image, channel) order — to factor every forward-HIT row's
     * dW contribution through its owner's patch (sum-then-multiply).
     * Bit-identical to conv2dBackwardWeight when the record holds no
     * hits; exact up to float-summation order of the grouped output
     * gradients otherwise.
     *
     * @param input   the forward input (owner patches are read from
     *                each plane's conv frame)
     * @param gradOut (N, Cout, outH(H), outW(W)) output gradient
     * @param record  the forward pass's captured record
     * @param stats   filled with the dW-pass reuse statistics
     */
    Tensor backwardWeights(const Tensor &input, const Tensor &gradOut,
                           const ConvSpec &spec,
                           const SignatureRecord &record,
                           ReuseStats &stats);

    /** Signature length this engine detects with. */
    int signatureBits() const { return frontend_.signatureBits(); }

  private:
    FrontendHandle frontend_;
};

} // namespace mercury

#endif // MERCURY_CORE_CONV_REUSE_ENGINE_HPP
