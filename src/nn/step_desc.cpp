#include "nn/step_desc.hpp"

#include <string>

namespace mercury {

namespace {

std::string
entryName(const std::vector<LayerShape> &stack)
{
    return "op" + std::to_string(stack.size());
}

} // namespace

StepDescBuilder::StepDescBuilder(const std::vector<int64_t> &input_shape)
{
    if (input_shape.size() == 4) {
        valid4d_ = true;
        c_ = input_shape[1];
        h_ = input_shape[2];
        w_ = input_shape[3];
    }
}

void
StepDescBuilder::conv(const ConvSpec &spec)
{
    // Without its input shape a conv has no spatial dims to price, so
    // it is left out, and the walk stays lost behind it.
    if (!valid4d_ || c_ != spec.inChannels) {
        opaque();
        return;
    }
    stack_.push_back(LayerShape::conv(entryName(stack_), spec.inChannels,
                                      spec.outChannels, h_, w_,
                                      spec.kernelH, spec.stride, spec.pad,
                                      spec.groups));
    convChain_ = h_ > 0;
    c_ = spec.outChannels;
    h_ = spec.outH(h_);
    w_ = spec.outW(w_);
}

void
StepDescBuilder::dense(int64_t in_features, int64_t out_features)
{
    stack_.push_back(
        LayerShape::fc(entryName(stack_), in_features, out_features));
    valid4d_ = false; // dense output is (N, M)
    convChain_ = false;
}

void
StepDescBuilder::attention(int64_t seq_len, int64_t embed_dim)
{
    stack_.push_back(
        LayerShape::attention(entryName(stack_), seq_len, embed_dim));
    valid4d_ = false;
    convChain_ = false;
}

void
StepDescBuilder::maxPool2x2()
{
    if (convChain_)
        stack_.push_back(
            LayerShape::pool(entryName(stack_), c_, h_, w_, 2, 2));
    if (valid4d_) {
        h_ /= 2;
        w_ /= 2;
    }
}

void
StepDescBuilder::opaque()
{
    valid4d_ = false;
    convChain_ = false;
}

} // namespace mercury
