/**
 * @file
 * Dense tensor operations: convolution (forward and both backward
 * passes), matrix multiplication, im2col vector extraction, pooling,
 * activations, and the softmax cross-entropy loss.
 *
 * Convolutions follow the paper's §II-C formulation: forward output is
 * (H - k1 + 1) x (W - k2 + 1) (optionally strided / padded), the weight
 * gradient is a correlation between layer inputs and output gradients
 * (Eq. 1), and the input gradient is a full correlation with the
 * flipped kernel (Eq. 2).
 */

#ifndef MERCURY_TENSOR_OPS_HPP
#define MERCURY_TENSOR_OPS_HPP

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace mercury {

/** Static geometry of a 2D convolution. */
struct ConvSpec
{
    int64_t inChannels = 1;
    int64_t outChannels = 1;
    int64_t kernelH = 3;
    int64_t kernelW = 3;
    int64_t stride = 1;
    int64_t pad = 0;
    int64_t groups = 1;

    /** Output height for the given input height. */
    int64_t outH(int64_t in_h) const
    {
        return (in_h + 2 * pad - kernelH) / stride + 1;
    }

    /** Output width for the given input width. */
    int64_t outW(int64_t in_w) const
    {
        return (in_w + 2 * pad - kernelW) / stride + 1;
    }
};

// Operand checks shared by the exact ops and the reuse engines: each
// panics, naming the mismatch, unless its operand fits `spec`.

/** groups, stride and kernel >= 1, pad >= 0, channels divisible by groups. */
void checkConvSpec(const ConvSpec &spec);

/** input is (N, Cin, H, W). */
void checkConvInput(const Tensor &input, const ConvSpec &spec);

/** weight is (Cout, Cin/groups, kH, kW). */
void checkConvWeight(const Tensor &weight, const ConvSpec &spec);

/** gradOut is (n, Cout, outH(in_h), outW(in_w)). */
void checkConvGradOut(const Tensor &gradOut, int64_t n, int64_t in_h,
                      int64_t in_w, const ConvSpec &spec);

/** bias is empty or holds one element per filter (Cout). */
void checkConvBias(const Tensor &bias, const ConvSpec &spec);

/**
 * The zero-bordered frame of one (h, w) plane that the conv forward
 * and weight gradient read. Input cell (y, x) sits at padded
 * (y + pad, x + pad), and the frame's (oh - 1) * stride + kH rows and
 * (ow - 1) * stride + kW columns hold every tap of every output; input
 * cells beyond them are read by no tap. Each row keeps its columns
 * split by phase modulo the stride, column c at slot
 * (c % stride) * span + c / stride, so tap kx of output column x,
 * padded column x * stride + kx, is slot col(kx) + x: every loop over
 * x is unit-stride, at any stride.
 */
class ConvFrame
{
  public:
    /** Frame of an (h, w) input plane under `spec`. */
    ConvFrame(const ConvSpec &spec, int64_t h, int64_t w);

    /** Floats of one frame. */
    int64_t size() const { return rows_ * rowLen_; }

    int64_t outH() const { return oh_; }
    int64_t outW() const { return ow_; }

    /**
     * The slot each tap (c, ky, kx) reads for output (0, 0), taps
     * ascending over `channels` consecutive frames.
     */
    std::vector<int64_t> tapOffsets(int64_t channels) const;

    /** tapOffsets(1), kept with the frame: one channel's kH * kW taps. */
    const std::vector<int64_t> &channelTaps() const { return taps_; }

    /** Distance between the slots a tap reads for output rows y, y + 1. */
    int64_t rowStep() const { return stride_ * rowLen_; }

    /**
     * The slot tap (0, 0) reads for each output position r = y * ow + x:
     * y * rowStep() + x.
     */
    std::vector<int64_t> positionSlots() const;

    /**
     * Copy `channels` (h, w) planes into consecutive frames. Writes
     * every cell of each frame, the zero border included, so `dst`
     * needs no clearing between loads.
     */
    void load(const float *src, int64_t channels, float *dst) const;

  private:
    int64_t h_, w_, oh_, ow_, kh_, kw_, stride_, pad_, rows_;
    int64_t span_ = 0, rowLen_ = 0;
    int64_t inRows_ = 0;        ///< input rows y < inRows_ are in the frame
    std::vector<int64_t> slot_; ///< slot of each input column in the frame
    std::vector<int64_t> taps_; ///< channelTaps()

    /** Slot of padded column c within a row. */
    int64_t col(int64_t c) const { return c % stride_ * span_ + c / stride_; }

    /** Offset of the slot tap (ky, kx) reads for output (0, 0). */
    int64_t tap(int64_t ky, int64_t kx) const
    {
        return ky * rowLen_ + col(kx);
    }
};

/**
 * The zero-bordered frame of one (oh, ow) output-gradient plane that
 * the input gradient reads: Eq. 2 as a full correlation of the
 * stride-dilated gradients with the flipped kernel. The frame has
 * h + kH - 1 rows of w + kW - 1 floats. Gradient (y, x) sits at
 * (y * stride + kH - 1 - pad, x * stride + kW - 1 - pad) when that lies
 * inside (one outside reaches only padding), and every other cell is
 * zero, so input cell (iy, ix) reads frame (iy + j, ix + i) against
 * kernel element (kH - 1 - j, kW - 1 - i) for every (j, i).
 *
 * So the input gradient is the kernel table's convForward over a
 * group's Cout/groups frames, with no bias: its filters are the input
 * channels, its taps (filter, j, i) ascending at taps(), its rows
 * pitch() apart, and its weights flipKernels(). Each cell sums, from
 * +0, go * w over (filter, y, x) ascending — the order of the scatter
 * form, which the conv engine's dX replay relies on
 * (docs/ARCHITECTURE.md, "Exact ops") — plus border terms 0 * w = +-0,
 * which leave such a sum unchanged for finite weights.
 */
class ConvGradFrame
{
  public:
    /** Frame of the gradients of an (h, w) input plane under `spec`. */
    ConvGradFrame(const ConvSpec &spec, int64_t h, int64_t w);

    /** Floats of one frame. */
    int64_t size() const { return rows_ * pitch_; }

    /** Floats of one frame row: convForward's rowStep. */
    int64_t pitch() const { return pitch_; }

    /**
     * The slot each tap (filter, j, i) reads for input cell (0, 0):
     * f * size() + j * pitch() + i, ascending over the group's
     * Cout/groups frames.
     */
    const std::vector<int64_t> &taps() const { return taps_; }

    /**
     * `weight` (Cout, Cin/groups, kH, kW) flipped into convForward's
     * layout at `dst` (weight.numel() floats): input channel c of group
     * g has its taps() weights at (g * Cin/groups + c) * taps().size(),
     * tap (f, j, i) holding kernel element (kH - 1 - j, kW - 1 - i) of
     * filter g * Cout/groups + f for that channel.
     */
    void flipKernels(const Tensor &weight, float *dst) const;

    /**
     * Write `filters` consecutive (oh, ow) gradient planes into
     * consecutive frames at `dst`; with `owners`, position r of every
     * plane takes the gradient at position owners[r]. Only the cells
     * gradients land on are written, the same ones at every load: zero
     * `dst` once and it serves every load of this frame. At stride 1 a
     * gradient row lands on consecutive cells: without owners each row
     * moves in quads, through them one gatherSpan moves every row of
     * every plane.
     */
    void load(const float *go, int64_t filters, const int32_t *owners,
              float *dst) const;

  private:
    int64_t oh_, ow_, kh_, kw_, stride_, pad_, groups_, rows_, pitch_;
    int64_t y0_ = 0, y1_ = 0; ///< gradient rows [y0_, y1_) land inside
    int64_t x0_ = 0, x1_ = 0; ///< gradient columns [x0_, x1_) land inside
    std::vector<int64_t> taps_; ///< taps()

    /** Frame offset of gradient (y, x). */
    int64_t at(int64_t y, int64_t x) const
    {
        return (y * stride_ + kh_ - 1 - pad_) * pitch_ + x * stride_ + kw_ -
               1 - pad_;
    }
};

/**
 * gradOut's (n * groups) blocks of Cout/groups (oh, ow) planes, each
 * transposed to (position, filter): an (n * groups, oh * ow,
 * Cout/groups) tensor, the layout the weight-gradient kernel
 * (ownerWeightMul) reads the output gradients in. Moves 4 x 4 tiles.
 */
Tensor gradOutByPosition(const Tensor &gradOut, int64_t groups);

/**
 * The three exact conv ops of one (spec, h, w) layer, with their
 * geometry (the frames, tap offsets and position slots) built once and
 * their frame buffers kept between calls: Conv2dLayer holds one, and
 * the free functions below build one per call. Each op fully writes
 * the tensor it returns. The ops reuse member scratch, so one object
 * runs one op at a time.
 */
class ExactConv
{
  public:
    /** The ops of `spec` on (h, w) inputs; panics on a bad spec. */
    ExactConv(const ConvSpec &spec, int64_t h, int64_t w);

    /** True when this object's inputs are (h, w) planes. */
    bool fits(int64_t h, int64_t w) const;

    /**
     * Forward convolution.
     *
     * @param input  (N, Cin, H, W)
     * @param weight (Cout, Cin/groups, kH, kW)
     * @param bias   (Cout) or empty tensor for no bias
     * @return       (N, Cout, outH, outW)
     */
    Tensor forward(const Tensor &input, const Tensor &weight,
                   const Tensor &bias);

    /**
     * Gradient of the loss w.r.t. the weights (paper Eq. 1). With
     * `gradBias`, also writes conv2dBackwardBias(gradOut) there, bit
     * for bit, summed from the same transposed gradients.
     */
    Tensor backwardWeight(const Tensor &input, const Tensor &gradOut,
                          Tensor *gradBias = nullptr);

    /** Gradient of the loss w.r.t. the (N, Cin, H, W) input (Eq. 2). */
    Tensor backwardInput(const Tensor &gradOut, const Tensor &weight);

  private:
    ConvSpec spec_;
    int64_t h_, w_, cin_g_, cout_g_;
    ConvFrame frame_;
    ConvGradFrame gradFrame_;
    std::vector<int64_t> tapOff_;   ///< frame_.tapOffsets(cin_g_)
    std::vector<int64_t> slots_;    ///< frame_.positionSlots()
    std::vector<float> frames_;     ///< cin_g_ conv frames
    std::vector<float> gradFrames_; ///< cout_g_ gradient frames, zeroed once
    std::vector<float> flipped_;    ///< gradFrame_.flipKernels(weight)
    std::vector<float> goT_;        ///< one (image, group)'s gradients
    std::vector<float> acc_;        ///< a group's (tap, filter) dW sums

    /** Panics unless `input` is (N, Cin, h, w). */
    void checkInput(const Tensor &input) const;
};

/**
 * Forward convolution: ExactConv(spec, H, W).forward.
 *
 * @param input  (N, Cin, H, W)
 * @param weight (Cout, Cin/groups, kH, kW)
 * @param bias   (Cout) or empty tensor for no bias
 * @return       (N, Cout, outH, outW)
 */
Tensor conv2dForward(const Tensor &input, const Tensor &weight,
                     const Tensor &bias, const ConvSpec &spec);

/** Gradient of the loss w.r.t. the convolution weights (paper Eq. 1). */
Tensor conv2dBackwardWeight(const Tensor &input, const Tensor &gradOut,
                            const ConvSpec &spec);

/** Gradient of the loss w.r.t. the convolution input (paper Eq. 2). */
Tensor conv2dBackwardInput(const Tensor &gradOut, const Tensor &weight,
                           const ConvSpec &spec, int64_t in_h, int64_t in_w);

/**
 * Gradient of the loss w.r.t. the bias: each filter's sum over
 * (N, H, W) ascending from +0, the filters four to a vector, side by
 * side.
 */
Tensor conv2dBackwardBias(const Tensor &gradOut);

/**
 * Extract im2col patches: each sliding (Cin/groups * kH * kW) window of
 * one image becomes a row. These rows are exactly the "input vectors"
 * MERCURY computes signatures over.
 *
 * @param input (N, Cin, H, W); extraction is done per (n, group)
 * @return      (N * groups * outH * outW, Cin/groups * kH * kW)
 */
Tensor im2col(const Tensor &input, const ConvSpec &spec);

/** Matrix product: (m, k) x (k, n) -> (m, n). */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Matrix product with b transposed: (m, k) x (n, k)^T -> (m, n). */
Tensor matmulTransposeB(const Tensor &a, const Tensor &b);

/** Transpose a rank-2 tensor. */
Tensor transpose2d(const Tensor &a);

/** Elementwise ReLU: x where x > 0, else +0 (NaN and -0 give +0). */
Tensor reluForward(const Tensor &x);

/**
 * ReLU gradient: +0 where x <= 0, else grad (so NaN x passes grad).
 * Panics unless grad has x's shape.
 */
Tensor reluBackward(const Tensor &x, const Tensor &grad);

/**
 * 2x2 stride-2 max pooling over (N, C, H, W); also fills argmax with
 * each output's flat offset in x. A window takes its first element,
 * then each later one (row-major) that is strictly larger, so equal
 * values (+0 against -0 too) and a NaN keep the earlier element, and a
 * NaN first element stays. A trailing odd row or column is read by no
 * window.
 */
Tensor maxPool2x2Forward(const Tensor &x, std::vector<int32_t> &argmax);

/**
 * Backward of 2x2 stride-2 max pooling: the input gradient of shape
 * `inShape`, each window's cell at argmax holding +0 + gradOut and
 * every other cell +0. Panics unless gradOut is (N, C, H/2, W/2), argmax
 * holds one offset per gradOut element, and each lies in its window.
 */
Tensor maxPool2x2Backward(const std::vector<int64_t> &inShape,
                          const Tensor &gradOut,
                          const std::vector<int32_t> &argmax);

/** Global average pooling (N, C, H, W) -> (N, C). */
Tensor globalAvgPoolForward(const Tensor &x);

/**
 * Backward of global average pooling to an input of shape `inShape`;
 * panics unless gradOut is (N, C).
 */
Tensor globalAvgPoolBackward(const std::vector<int64_t> &inShape,
                             const Tensor &gradOut);

/**
 * Softmax cross-entropy over logits (N, numClasses).
 *
 * @param logits (N, K)
 * @param labels length-N class indices
 * @param gradOut filled with dLoss/dLogits (average-over-batch scaling)
 * @return mean loss
 */
float softmaxCrossEntropy(const Tensor &logits,
                          const std::vector<int> &labels, Tensor &gradOut);

/** Row-wise softmax of a rank-2 tensor. */
Tensor softmaxRows(const Tensor &x);

/** Number of multiply-accumulate operations of a forward convolution. */
uint64_t convMacCount(int64_t n, int64_t in_h, int64_t in_w,
                      const ConvSpec &spec);

} // namespace mercury

#endif // MERCURY_TENSOR_OPS_HPP
