/**
 * @file
 * Functional convolution with MERCURY reuse (§III-C1).
 *
 * For every (image, channel) the engine extracts the input vectors,
 * runs the similarity detector, then performs the channel's filter
 * passes: HIT vectors take their dot product from MCACHE (the value
 * the matching MAU vector computed), MAU vectors compute and deposit
 * their result, MNU vectors compute without caching. Results
 * accumulate over channels exactly like the baseline convolution, so
 * the output differs from the exact convolution only by the
 * reuse-induced approximation — which is what the accuracy
 * experiments measure.
 *
 * Overlap (§III-B, Fig. 8): every channel pass consumes the
 * pipeline's streaming block hand-off. When the pass resolves
 * overlapped on a worker pool, the filter passes run as SerialExecutor
 * chains that start on each block as it is delivered, while later
 * blocks are still hashing; without a pool the same schedule runs
 * inline (hash, probe, filter, per block). Each filter processes its
 * rows in stream order (the MCACHE owner-writes-before-hit-reads
 * discipline), so outputs, hit/skip decisions, and statistics are
 * bit-identical either way.
 *
 * Cross-channel overlap: the extraction tensor is double buffered,
 * so the engine extracts and *hashes* channel c+1
 * (DetectionFrontend::beginHashStream — no MCACHE state touched)
 * while channel c's filter chains are still draining, hiding the
 * extraction + hashing fraction that the within-channel overlap
 * could not reach. Without a pool the job defers its hashing into
 * the probe half, so nothing runs ahead.
 *
 * Backward (§III-C2): forward() optionally captures each channel
 * pass into a SignatureRecord; backwardInput() then computes the
 * input-gradient pass with the *same* reuse decisions, streamed back
 * through the block hand-off with zero detection cost. A forward-HIT
 * row reuses its owner row's grad-column products instead of
 * multiplying the output gradient into the kernel again; rows that
 * computed forward compute backward. With zero hits the result is
 * bit-identical to the exact input gradient (tensor/ops
 * conv2dBackwardInput): the scatter accumulates per input cell in
 * the exact path's (filter, output-position) order.
 *
 * Weight gradients (§III-C2 applied to Eq. 1): backwardWeights()
 * replays the same record over dW = X ⊛ dY. A forward-HIT row's
 * contribution x_hit ⊗ dy_hit factors through the owner's patch as
 * x_owner ⊗ (Σ dy over the owner's hit-group), so the pass first
 * sums the output gradients of each hit-group (cheap adds, charged
 * as per-group accumulate cycles in the timing model) and then does
 * one multiply per group — sum-then-multiply. With zero hits the
 * result is bit-identical to conv2dBackwardWeight; with hits it is
 * the exact dW up to the float-summation order of the grouped
 * gradient rows.
 *
 * Thread-safety: forward(), backwardInput(), and backwardWeights()
 * are driven by one thread; the filter tasks they spawn touch the
 * runtime's PassDataPlane (forward) or engine-local grad-column /
 * group-sum buffers (backward) concurrently. Two threads must not call into one
 * engine (or two engines sharing a frontend) concurrently.
 *
 * Scheduling — whether a pass gets the pool, the per-filter stream
 * chains, and the grouped fan-outs — is delegated to ReuseRuntime
 * (core/reuse_runtime.hpp): each of the three passes is expressed as
 * a FilterPassSet descriptor, so this file holds only the conv shape
 * logic (patch extraction, group/filter geometry, scatter orders).
 * Grouped and depthwise convolutions (spec.groups > 1) are the same
 * descriptors over per-group filter ranges — no separate engine.
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
 * Extract the (oh*ow, k*k) patch rows of one (image, channel) pass —
 * the Fig. 7a vector extraction shared by the forward detection pass
 * and the weight-gradient replay (which needs the owner patches
 * back). Reads input.at4(b, c, ...) only, so any tensor holding the
 * channel works.
 */
void extractChannelPatches(const Tensor &input, const ConvSpec &spec,
                           int64_t b, int64_t c, int64_t oh, int64_t ow,
                           Tensor &rows);

/**
 * Ranged form of extractChannelPatches: fill rows [r0, r1) only (row
 * r is output position (r / ow, r % ow); absolute indexing, so the
 * destination range is rows.data() + r0 * k * k onward). This is the
 * single-touch fusion entry: forward() hands it to each channel's
 * hash job as a RowFiller so each block's patches are extracted
 * immediately before they are hashed — one L2-sized walk instead of
 * an extract-everything pass followed by a hash-everything pass.
 * Disjoint ranges may run concurrently (pure span copies/zeros via
 * the extractPatches kernel; no shared mutable state).
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
     * Reuse-enabled forward convolution, channel by channel.
     *
     * @param input  (N, Cin, H, W)
     * @param weight (Cout, Cin, kH, kW) — groups == 1
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
     * order — to skip the grad-column products of every forward-HIT
     * row. Bit-identical to conv2dBackwardInput when the record holds
     * no hits.
     *
     * @param gradOut (N, Cout, outH, outW) output gradient
     * @param weight  the forward weights
     * @param in_h    input height the gradient is scattered back to
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
     * @param gradOut (N, Cout, outH, outW) output gradient
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
