#include "nn/network.hpp"

#include "util/logging.hpp"

namespace mercury {

void
Network::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
}

uint64_t
Network::paramCount() const
{
    uint64_t n = 0;
    for (const auto &l : layers_)
        n += l->paramCount();
    return n;
}

Tensor
Network::forward(const Tensor &x, MercuryContext *ctx)
{
    if (layers_.empty())
        panic("forward through an empty network");
    Tensor y = x;
    for (auto &l : layers_)
        y = l->forward(y, ctx);
    return y;
}

std::vector<LayerShape>
Network::describeStep(const Tensor &x) const
{
    StepDescBuilder b(x.shape());
    for (const auto &l : layers_)
        l->describeStep(b);
    return b.stack();
}

float
Network::trainBatch(const Tensor &x, const std::vector<int> &labels,
                    float lr, MercuryContext *ctx)
{
    Tensor logits = forward(x, ctx);
    Tensor grad;
    const float loss = softmaxCrossEntropy(logits, labels, grad);
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        grad = (*it)->backward(grad, ctx);
    for (auto &l : layers_)
        l->step(lr);
    return loss;
}

double
Network::accuracy(const Tensor &x, const std::vector<int> &labels,
                  MercuryContext *ctx)
{
    Tensor logits = forward(x, ctx);
    const int64_t n = logits.dim(0);
    const int64_t k = logits.dim(1);
    int correct = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t best = 0;
        for (int64_t j = 1; j < k; ++j)
            if (logits.at2(i, j) > logits.at2(i, best))
                best = j;
        correct += best == labels[static_cast<size_t>(i)];
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace mercury
