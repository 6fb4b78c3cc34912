#include "nn/layers.hpp"

#include <cmath>

#include "core/fc_engine.hpp"
#include "util/logging.hpp"

namespace mercury {

// ---------------------------------------------------------------------
// Conv2dLayer
// ---------------------------------------------------------------------

Conv2dLayer::Conv2dLayer(int64_t c_in, int64_t c_out, int64_t kernel,
                         int64_t stride, int64_t pad, Rng &rng,
                         uint64_t layer_id, int64_t groups)
    : layerId_(layer_id)
{
    spec_.inChannels = c_in;
    spec_.outChannels = c_out;
    spec_.kernelH = spec_.kernelW = kernel;
    spec_.stride = stride;
    spec_.pad = pad;
    spec_.groups = groups;
    weight_ = Tensor({c_out, c_in / groups, kernel, kernel});
    // He initialization for ReLU stacks.
    const float fan_in =
        static_cast<float>((c_in / groups) * kernel * kernel);
    weight_.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
    bias_ = Tensor({c_out});
}

Tensor
Conv2dLayer::forward(const Tensor &x, MercuryContext *ctx)
{
    lastInput_ = x;
    recordValid_ = false;
    if (ctx) {
        ConvReuseEngine engine(ctx->frontendFor(layerId_),
                               ctx->signatureBits());
        ReuseStats stats;
        SignatureRecord *capture =
            ctx->capturesRecords() ? &record_ : nullptr;
        Tensor out =
            engine.forward(x, weight_, bias_, spec_, stats, capture);
        ctx->accumulate(stats);
        recordValid_ = capture != nullptr;
        return out;
    }
    return exact(x).forward(x, weight_, bias_);
}

ExactConv &
Conv2dLayer::exact(const Tensor &x)
{
    checkConvInput(x, spec_);
    if (!exact_ || !exact_->fits(x.dim(2), x.dim(3)))
        exact_ = std::make_unique<ExactConv>(spec_, x.dim(2), x.dim(3));
    return *exact_;
}

Tensor
Conv2dLayer::backwardImpl(const Tensor &grad, MercuryContext *ctx)
{
    if (ctx && ctx->weightGradReuse() && recordValid_) {
        // Weight-gradient replay (§III-C2 on Eq. 1): sum each forward
        // hit-group's output gradients, then one multiply per group
        // through the owner's patch.
        ConvReuseEngine engine(ctx->frontendFor(layerId_),
                               ctx->signatureBits());
        ReuseStats wstats;
        gradWeight_ = engine.backwardWeights(lastInput_, grad, spec_,
                                             record_, wstats);
        ctx->accumulateWeightGrad(wstats);
        gradBias_ = conv2dBackwardBias(grad);
    } else {
        gradWeight_ = exact(lastInput_).backwardWeight(lastInput_, grad,
                                                       &gradBias_);
    }
    if (ctx && ctx->backwardReuse() && recordValid_) {
        // Replay the forward pass's detection outcomes through the
        // input-gradient pass (§III-C2): zero detection cost, and
        // forward-HIT rows reuse their owner's products.
        ConvReuseEngine engine(ctx->frontendFor(layerId_),
                               ctx->signatureBits());
        ReuseStats stats;
        Tensor gin = engine.backwardInput(grad, weight_, spec_,
                                          lastInput_.dim(2),
                                          lastInput_.dim(3), record_,
                                          stats);
        ctx->accumulateBackward(stats);
        return gin;
    }
    return exact(lastInput_).backwardInput(grad, weight_);
}

void
Conv2dLayer::step(float lr)
{
    if (gradWeight_.numel() != weight_.numel())
        panic("conv step before backward");
    for (int64_t i = 0; i < weight_.numel(); ++i)
        weight_[i] -= lr * gradWeight_[i];
    for (int64_t i = 0; i < bias_.numel(); ++i)
        bias_[i] -= lr * gradBias_[i];
}

uint64_t
Conv2dLayer::paramCount() const
{
    return static_cast<uint64_t>(weight_.numel() + bias_.numel());
}

// ---------------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------------

DenseLayer::DenseLayer(int64_t in_features, int64_t out_features, Rng &rng,
                       uint64_t layer_id)
    : layerId_(layer_id)
{
    weight_ = Tensor({in_features, out_features});
    weight_.fillNormal(rng, 0.0f,
                       std::sqrt(2.0f / static_cast<float>(in_features)));
    bias_ = Tensor({out_features});
}

Tensor
DenseLayer::forward(const Tensor &x, MercuryContext *ctx)
{
    if (x.rank() != 2)
        panic("dense layer expects (N, D), got ", x.shapeStr());
    lastInput_ = x;
    recordValid_ = false;
    Tensor out;
    if (ctx) {
        FcEngine engine(ctx->frontendFor(layerId_),
                        ctx->signatureBits());
        ReuseStats stats;
        SignatureRecord *capture =
            ctx->capturesRecords() ? &record_ : nullptr;
        out = engine.forward(x, weight_, stats, nullptr, capture);
        ctx->accumulate(stats);
        recordValid_ = capture != nullptr;
    } else {
        out = matmul(x, weight_);
    }
    for (int64_t i = 0; i < out.dim(0); ++i)
        for (int64_t j = 0; j < out.dim(1); ++j)
            out.at2(i, j) += bias_[j];
    return out;
}

Tensor
DenseLayer::backwardImpl(const Tensor &grad, MercuryContext *ctx)
{
    if (ctx && ctx->weightGradReuse() && recordValid_) {
        // Weight-gradient replay (§III-C2 on Eq. 1): one outer
        // product per forward hit-group through the owner's input
        // row.
        FcEngine engine(ctx->frontendFor(layerId_),
                        ctx->signatureBits());
        ReuseStats wstats;
        gradWeight_ =
            engine.backwardWeights(lastInput_, grad, record_, wstats);
        ctx->accumulateWeightGrad(wstats);
    } else {
        gradWeight_ = matmul(transpose2d(lastInput_), grad);
    }
    gradBias_ = Tensor({grad.dim(1)});
    for (int64_t i = 0; i < grad.dim(0); ++i)
        for (int64_t j = 0; j < grad.dim(1); ++j)
            gradBias_[j] += grad.at2(i, j);
    if (ctx && ctx->backwardReuse() && recordValid_) {
        // Replayed input-gradient pass (§III-C2): forward-HIT rows
        // receive their owner's gradient row, everyone else computes
        // grad x W^T exactly.
        FcEngine engine(ctx->frontendFor(layerId_),
                        ctx->signatureBits());
        ReuseStats stats;
        Tensor gin = engine.backwardInput(grad, weight_, record_, stats);
        ctx->accumulateBackward(stats);
        return gin;
    }
    return matmulTransposeB(grad, weight_);
}

void
DenseLayer::step(float lr)
{
    if (gradWeight_.numel() != weight_.numel())
        panic("dense step before backward");
    for (int64_t i = 0; i < weight_.numel(); ++i)
        weight_[i] -= lr * gradWeight_[i];
    for (int64_t i = 0; i < bias_.numel(); ++i)
        bias_[i] -= lr * gradBias_[i];
}

uint64_t
DenseLayer::paramCount() const
{
    return static_cast<uint64_t>(weight_.numel() + bias_.numel());
}

// ---------------------------------------------------------------------
// Stateless layers
// ---------------------------------------------------------------------

Tensor
ReluLayer::forward(const Tensor &x, MercuryContext *)
{
    lastInput_ = x;
    return reluForward(x);
}

Tensor
ReluLayer::backwardImpl(const Tensor &grad, MercuryContext *)
{
    return reluBackward(lastInput_, grad);
}

Tensor
MaxPoolLayer::forward(const Tensor &x, MercuryContext *)
{
    lastShape_ = x.shape();
    return maxPool2x2Forward(x, argmax_);
}

Tensor
MaxPoolLayer::backwardImpl(const Tensor &grad, MercuryContext *)
{
    return maxPool2x2Backward(lastShape_, grad, argmax_);
}

Tensor
GlobalAvgPoolLayer::forward(const Tensor &x, MercuryContext *)
{
    lastShape_ = x.shape();
    return globalAvgPoolForward(x);
}

Tensor
GlobalAvgPoolLayer::backwardImpl(const Tensor &grad, MercuryContext *)
{
    return globalAvgPoolBackward(lastShape_, grad);
}

Tensor
FlattenLayer::forward(const Tensor &x, MercuryContext *)
{
    lastShape_ = x.shape();
    Tensor out = x;
    int64_t rest = 1;
    for (int i = 1; i < x.rank(); ++i)
        rest *= x.dim(i);
    out.reshape({x.dim(0), rest});
    return out;
}

Tensor
FlattenLayer::backwardImpl(const Tensor &grad, MercuryContext *)
{
    Tensor out = grad;
    out.reshape(lastShape_);
    return out;
}

} // namespace mercury
