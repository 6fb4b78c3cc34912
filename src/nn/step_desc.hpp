/**
 * @file
 * StepDescBuilder: a network's step description, built in one forward
 * walk (Layer::describeStep) directly as the timing layer's layer
 * stack — the std::vector<LayerShape> every sim::CostModel backend
 * prices (sim/cost_model.hpp). The description only feeds timing
 * models, never execution.
 */

#ifndef MERCURY_NN_STEP_DESC_HPP
#define MERCURY_NN_STEP_DESC_HPP

#include <cstdint>
#include <vector>

#include "sim/layer_shape.hpp"
#include "tensor/ops.hpp"

namespace mercury {

/**
 * Collects the timing stack of one step: one LayerShape per
 * reuse-capable layer, plus one per 2x2 max pool on a conv's output
 * chain (pools between convs keep the cost model's fused conv→conv
 * edges alive). The builder tracks the activation shape so convs get
 * resolved spatial dims; a conv whose input shape the walk lost (after
 * an opaque op, a dense or attention layer, or a channel mismatch) is
 * left out, since there are no dims to price it by, and drops shape
 * tracking like an opaque op. Channelwise transforms that cost nothing
 * (ReLU) describe no entry and keep the shape.
 */
class StepDescBuilder
{
  public:
    explicit StepDescBuilder(const std::vector<int64_t> &input_shape);

    void conv(const ConvSpec &spec);
    void dense(int64_t in_features, int64_t out_features);
    void attention(int64_t seq_len, int64_t embed_dim);
    void maxPool2x2();
    /** Anything else: drops shape tracking. */
    void opaque();

    /** The timing stack, in forward order (entries named "op<i>"). */
    const std::vector<LayerShape> &stack() const { return stack_; }

  private:
    std::vector<LayerShape> stack_;
    // Tracked 4D activation shape (valid4d_ false after dense /
    // attention / opaque ops).
    bool valid4d_ = false;
    int64_t c_ = 0, h_ = 0, w_ = 0;
    /** The activation is a resolved conv's output (through ReLU /
     *  pools only): a 2x2 pool here is costed. */
    bool convChain_ = false;
};

} // namespace mercury

#endif // MERCURY_NN_STEP_DESC_HPP
