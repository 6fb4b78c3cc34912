/**
 * @file
 * Trainable layer zoo for the accuracy experiments: convolution,
 * dense, ReLU, pooling, and flatten. Layers cache what their backward
 * pass needs and own their parameters (SGD step in place).
 *
 * Reuse-capable layers accept an optional MercuryContext; when it is
 * enabled their forward pass runs through the functional MERCURY
 * engines.
 */

#ifndef MERCURY_NN_LAYERS_HPP
#define MERCURY_NN_LAYERS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime_planner.hpp"
#include "nn/mercury_hooks.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace mercury {

/** Abstract trainable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Forward pass. `ctx` may be null (exact execution) or an
     * enabled MercuryContext (reuse-approximated execution). With
     * ctx->backwardReuse() or ctx->weightGradReuse() set,
     * reuse-capable layers additionally capture their detection
     * outcomes once for the backward replay — one record feeds both
     * gradient passes.
     */
    virtual Tensor forward(const Tensor &x, MercuryContext *ctx) = 0;

    /**
     * Backward pass: input gradient from output gradient. `ctx` must
     * be the context the matching forward ran with (or null): with
     * backward reuse enabled, reuse-capable layers replay the
     * forward-captured SignatureRecord to skip input-gradient
     * products of forward-HIT rows (§III-C2); with weight-gradient
     * reuse enabled they additionally compute dW by sum-then-multiply
     * over the same record (one multiply per forward hit-group);
     * otherwise gradients are exact gradients of the perturbed
     * forward.
     *
     * Non-virtual dispatcher so the ctx default argument lives in
     * exactly one place (defaults on virtuals bind statically, and
     * eleven overrides repeating `= nullptr` would be eleven chances
     * to diverge); layers override backwardImpl.
     */
    Tensor backward(const Tensor &grad, MercuryContext *ctx = nullptr)
    {
        return backwardImpl(grad, ctx);
    }

    /** SGD parameter update (no-op for stateless layers). */
    virtual void step(float lr) { (void)lr; }

    /**
     * Contribute this layer's op to a step description
     * (core/runtime_planner.hpp), the workload the cost model replays:
     * reuse-capable layers describe their shape, channelwise
     * transforms describe their kind (they keep conv→conv fusion
     * edges alive), and everything else reports opaque — the planner
     * then stops shape tracking there and a later conv makes the step
     * unplannable. Opaque is always a safe default: the description
     * only feeds timing models, never execution.
     */
    virtual void describeStep(StepDescBuilder &b) const { b.opaque(); }

    virtual std::string name() const = 0;

    /** Number of trainable parameters. */
    virtual uint64_t paramCount() const { return 0; }

  protected:
    /** Backward implementation; see backward(). */
    virtual Tensor backwardImpl(const Tensor &grad,
                                MercuryContext *ctx) = 0;
};

/** 2D convolution layer (square kernels, optional groups). */
class Conv2dLayer : public Layer
{
  public:
    /**
     * @param layer_id unique id for the per-layer projection seed
     */
    Conv2dLayer(int64_t c_in, int64_t c_out, int64_t kernel,
                int64_t stride, int64_t pad, Rng &rng,
                uint64_t layer_id, int64_t groups = 1);

    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    void step(float lr) override;
    void describeStep(StepDescBuilder &b) const override
    {
        b.conv(layerId_, spec_);
    }
    std::string name() const override { return "conv2d"; }
    uint64_t paramCount() const override;

    const Tensor &weights() const { return weight_; }
    const ConvSpec &spec() const { return spec_; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    ConvSpec spec_;
    uint64_t layerId_;
    Tensor weight_;
    Tensor bias_;
    Tensor gradWeight_;
    Tensor gradBias_;
    Tensor lastInput_;
    // Forward-captured detection outcomes for the backward replay
    // (§III-C2); valid only for the most recent ctx-enabled forward.
    SignatureRecord record_;
    bool recordValid_ = false;
};

/** Fully connected layer on (N, D) inputs. */
class DenseLayer : public Layer
{
  public:
    DenseLayer(int64_t in_features, int64_t out_features, Rng &rng,
               uint64_t layer_id);

    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    void step(float lr) override;
    void describeStep(StepDescBuilder &b) const override
    {
        b.dense(layerId_, weight_.dim(0), weight_.dim(1));
    }
    std::string name() const override { return "dense"; }
    uint64_t paramCount() const override;

    const Tensor &weights() const { return weight_; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    uint64_t layerId_;
    Tensor weight_; // (D, M)
    Tensor bias_;   // (M)
    Tensor gradWeight_;
    Tensor gradBias_;
    Tensor lastInput_;
    // Forward-captured detection outcomes for the backward replay
    // (§III-C2); valid only for the most recent ctx-enabled forward.
    SignatureRecord record_;
    bool recordValid_ = false;
};

/** Elementwise ReLU. */
class ReluLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    void describeStep(StepDescBuilder &b) const override { b.relu(); }
    std::string name() const override { return "relu"; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    Tensor lastInput_;
};

/** 2x2 stride-2 max pooling. */
class MaxPoolLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    void describeStep(StepDescBuilder &b) const override
    {
        b.maxPool2x2();
    }
    std::string name() const override { return "maxpool2x2"; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    Tensor lastInput_;
    std::vector<int32_t> argmax_;
};

/** Global average pooling (N, C, H, W) -> (N, C). */
class GlobalAvgPoolLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    std::string name() const override { return "gap"; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    Tensor lastInput_;
};

/** Flatten (N, C, H, W) -> (N, C*H*W). */
class FlattenLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    std::string name() const override { return "flatten"; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    std::vector<int64_t> lastShape_;
};

} // namespace mercury

#endif // MERCURY_NN_LAYERS_HPP
