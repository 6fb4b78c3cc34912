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

/**
 * Forward convolution.
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
 * The zero-bordered frame of one (h, w) plane that a conv reads
 * (forward, dW) or accumulates into (dX). Input cell (y, x) sits at
 * padded (y + pad, x + pad), and the frame's (oh - 1) * stride + kH
 * rows and (ow - 1) * stride + kW columns hold every tap of every
 * output; input cells beyond them are read by no tap. Each row keeps
 * its columns split by phase modulo the stride, column c at slot
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
    int64_t kernelH() const { return kh_; }
    int64_t kernelW() const { return kw_; }

    /** Offset of the slot tap (ky, kx) reads for output (0, 0). */
    int64_t tap(int64_t ky, int64_t kx) const
    {
        return ky * rowLen_ + col(kx);
    }

    /** Distance between the slots a tap reads for output rows y, y + 1. */
    int64_t rowStep() const { return stride_ * rowLen_; }

    /** Copy `channels` (h, w) planes into consecutive frames. */
    void load(const float *src, int64_t channels, float *dst) const;

    /**
     * Copy one frame's input cells out to an (h, w) plane; cells that
     * no tap reaches are left as they are.
     */
    void crop(const float *frame, float *dst) const;

  private:
    int64_t h_, w_, oh_, ow_, kh_, kw_, stride_, pad_, rows_;
    int64_t span_ = 0, rowLen_ = 0;
    int64_t inRows_ = 0;        ///< input rows y < inRows_ are in the frame
    std::vector<int64_t> slot_; ///< slot of each input column in the frame

    /** Slot of padded column c within a row. */
    int64_t col(int64_t c) const { return c % stride_ * span_ + c / stride_; }
};

/**
 * dst[y][i] += src[y][i] * w over `rows` rows of n floats, with row
 * pitches dstPitch and srcPitch: a rounded multiply, then a rounded
 * add, per element (no FMA under the build's -ffp-contract=off). The
 * one mul-add body of the conv kernels, exact and reuse alike. dst and
 * src never overlap.
 */
inline void
mulAddRows(float *__restrict dst, int64_t dstPitch,
           const float *__restrict src, int64_t srcPitch, int64_t rows,
           int64_t n, float w)
{
    for (int64_t y = 0; y < rows; ++y)
        for (int64_t i = 0; i < n; ++i)
            dst[y * dstPitch + i] += src[y * srcPitch + i] * w;
}

/**
 * Input gradient of one input-channel plane: the per-(image, group,
 * channel) body of conv2dBackwardInput, which calls it for every
 * plane. `go` holds `filters` consecutive (oh, ow) output-gradient
 * planes; filter f's kernel for this channel is the (kH, kW) block at
 * w + f * wPitch. Each cell of the plane is the sum, from +0, of
 * go * w over (filter, y, x) ascending — the order the reuse engine's
 * input-gradient replay relies on (docs/ARCHITECTURE.md, "Exact
 * ops"). `frame` is f.size() floats of scratch; the cells of `gradIn`
 * that `f` covers are overwritten, the rest are left as they are.
 */
void conv2dBackwardInputChannel(const ConvFrame &f, const float *go,
                                int64_t filters, const float *w,
                                int64_t wPitch, float *frame,
                                float *gradIn);

/** Gradient of the loss w.r.t. the bias (sum over N, H, W). */
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

/** Elementwise ReLU. */
Tensor reluForward(const Tensor &x);

/** ReLU gradient: grad * (x > 0). */
Tensor reluBackward(const Tensor &x, const Tensor &grad);

/** 2x2 stride-2 max pooling over (N, C, H, W); also fills argmax. */
Tensor maxPool2x2Forward(const Tensor &x, std::vector<int32_t> &argmax);

/** Backward of 2x2 stride-2 max pooling using the stored argmax. */
Tensor maxPool2x2Backward(const Tensor &x, const Tensor &gradOut,
                          const std::vector<int32_t> &argmax);

/** Global average pooling (N, C, H, W) -> (N, C). */
Tensor globalAvgPoolForward(const Tensor &x);

/** Backward of global average pooling. */
Tensor globalAvgPoolBackward(const Tensor &x, const Tensor &gradOut);

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
