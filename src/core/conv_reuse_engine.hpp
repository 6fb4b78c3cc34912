/**
 * @file
 * Functional convolution with MERCURY reuse (§III-C1).
 *
 * For every (image, channel) the engine extracts the input vectors and
 * runs the similarity detector; every channel pass then resolves its
 * owner map (OwnerTable): a HIT row takes the result of the earlier
 * row of the same pass that installed its MCACHE entry (MAU), every
 * other row owns itself. Owner rows compute all of the channel's
 * filter values in one sweep over its kernels, transposed to (tap,
 * filter) — each value summed tap-ascending from +0, the dot product
 * the filter would compute alone — and every row then adds its
 * owner's values into the output. Results accumulate over channels
 * exactly like the baseline convolution, so the output differs from
 * the exact convolution only by the reuse-induced approximation —
 * which is what the accuracy experiments measure.
 *
 * Overlap (§III-B, Fig. 8): every channel pass is a ReuseRuntime
 * RowPass over the pipeline's streaming block hand-off. When the pass
 * resolves overlapped on a worker pool, each block's owner rows
 * compute on the pool while later blocks are still hashing, and the
 * owner-value adds fan out over filters; without a pool the same
 * schedule runs inline (hash, probe, compute, per block). Outputs,
 * hit/skip decisions, and statistics are bit-identical either way.
 *
 * Cross-channel overlap: the extraction tensor is double buffered,
 * so the engine extracts and *hashes* channel c+1
 * (DetectionFrontend::beginHashStream — no MCACHE state touched)
 * while channel c's owner computes are still draining. Without a pool
 * the job defers its hashing into the probe half, so nothing runs
 * ahead.
 *
 * Backward (§III-C2): forward() optionally captures each channel
 * pass into a SignatureRecord; backwardInput() then replays the
 * input-gradient pass with the *same* reuse decisions and zero
 * detection cost. A forward-HIT row's products are go[owner] * w, so
 * each pass is the exact per-channel input gradient
 * (conv2dBackwardInputChannel) of the output gradients gathered
 * through the owner map: every cell sums in (filter, y, x) order from
 * +0, and with zero hits the result is conv2dBackwardInput bit for
 * bit. Passes write disjoint planes and fan out over the pool.
 *
 * Weight gradients (§III-C2 applied to Eq. 1): backwardWeights()
 * replays the same record over dW = X ⊛ dY. A forward-HIT row's
 * contribution x_hit ⊗ dy_hit factors through the owner's patch as
 * x_owner ⊗ (Σ dy over the owner's hit-group), so each pass first
 * sums the output gradients of each hit-group (cheap adds, charged
 * as per-group accumulate cycles in the timing model) and then does
 * one multiply per owner — sum-then-multiply, every weight element
 * accumulating (image, owner) ascending from +0. With zero hits the
 * result is bit-identical to conv2dBackwardWeight; with hits it is
 * the exact dW up to the float-summation order of the grouped
 * gradient rows. (group, channel) pairs fan out over the pool.
 *
 * Thread-safety: forward(), backwardInput(), and backwardWeights()
 * are driven by one thread; the tasks they spawn write disjoint rows,
 * filters, planes, or weight slices. Two threads must not call into
 * one engine (or two engines sharing a frontend) concurrently.
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
#include "core/similarity_detector.hpp"
#include "pipeline/detection_frontend.hpp"
#include "sim/dataflow.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/**
 * Extract patch rows [r0, r1) of one (image, channel) pass — the
 * Fig. 7a vector extraction shared by the forward detection pass and
 * the weight-gradient replay (which needs the owner patches back).
 * Row r is output position (r / ow, r % ow), k*k floats; indexing is
 * absolute, so the destination range is rows.data() + r0 * k * k
 * onward. Reads input.at4(b, c, ...) only, so any tensor holding the
 * channel works. This is the single-touch fusion entry: forward()
 * hands it to each channel's hash job as a RowFiller so each block's
 * patches are extracted immediately before they are hashed — one
 * L2-sized walk instead of an extract-everything pass followed by a
 * hash-everything pass. Disjoint ranges may run concurrently (pure
 * span copies/zeros via the extractPatches kernel; no shared mutable
 * state).
 */
void extractChannelPatchRows(const Tensor &input, const ConvSpec &spec,
                             int64_t b, int64_t c, int64_t ow, int64_t r0,
                             int64_t r1, Tensor &rows);

/** Functional conv-layer engine with MERCURY computation reuse. */
class ConvReuseEngine
{
  public:
    /**
     * Run through a caller-provided MCACHE: builds an internal
     * DetectionFrontend view over it.
     *
     * @param cache    MCACHE instance to run through
     * @param sig_bits signature length for detection
     * @param seed     seed for the per-layer random projection
     * @param pipe     pipeline knobs (block size, threads; the
     *                 external cache is always a single shard)
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
     * @param input   the forward input (patches are re-extracted)
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
