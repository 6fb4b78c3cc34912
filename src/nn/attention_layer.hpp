/**
 * @file
 * Trainable self-attention layer using the paper's simplified
 * formulation (§III-C4): for each sample, Y = (X Xt) X where X is the
 * (seq_len, embed_dim) token matrix. No trainable parameters — the
 * attention weights are data-dependent — but gradients flow through
 * all three X factors.
 */

#ifndef MERCURY_NN_ATTENTION_LAYER_HPP
#define MERCURY_NN_ATTENTION_LAYER_HPP

#include "nn/layers.hpp"

namespace mercury {

/** Self-attention over (N, seq_len * embed_dim) flattened samples. */
class SelfAttentionLayer : public Layer
{
  public:
    SelfAttentionLayer(int64_t seq_len, int64_t embed_dim,
                       uint64_t layer_id, float scale = 1.0f);

    Tensor forward(const Tensor &x, MercuryContext *ctx) override;
    void describeStep(StepDescBuilder &b) const override
    {
        b.attention(seqLen_, embedDim_);
    }
    std::string name() const override { return "self-attention"; }

  protected:
    Tensor backwardImpl(const Tensor &grad,
                        MercuryContext *ctx) override;

  private:
    int64_t seqLen_;
    int64_t embedDim_;
    uint64_t layerId_;
    float scale_; ///< 1/seq_len-style normalization for stability
    Tensor lastInput_;
    // Forward-captured detection outcomes, one pass per sample, for
    // the backward replay (§III-C2).
    SignatureRecord record_;
    bool recordValid_ = false;
};

} // namespace mercury

#endif // MERCURY_NN_ATTENTION_LAYER_HPP
