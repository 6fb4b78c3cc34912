/**
 * @file
 * Sequential network container with an SGD training loop. The same
 * network trains exactly (baseline) or through the MERCURY reuse
 * engines (pass an enabled MercuryContext), which is how the
 * accuracy-parity experiments are run.
 */

#ifndef MERCURY_NN_NETWORK_HPP
#define MERCURY_NN_NETWORK_HPP

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace mercury {

/** A stack of layers trained with softmax cross-entropy + SGD. */
class Network
{
  public:
    Network() = default;

    /** Append a layer (takes ownership). */
    void add(std::unique_ptr<Layer> layer);

    size_t numLayers() const { return layers_.size(); }

    /** Total trainable parameters. */
    uint64_t paramCount() const;

    /** Forward through all layers. */
    Tensor forward(const Tensor &x, MercuryContext *ctx = nullptr);

    /**
     * The timing stack of the step forward(x) would execute
     * (nn/step_desc.hpp), the layer stack sim::CostModel::stepCost
     * prices. Lets consumers cost a network without a MercuryContext
     * (e.g. the server's modeled-cycle stats).
     */
    std::vector<LayerShape> describeStep(const Tensor &x) const;

    /**
     * One SGD step on a minibatch; returns the mean loss. Gradients
     * are exact gradients of the (possibly reuse-perturbed) forward.
     */
    float trainBatch(const Tensor &x, const std::vector<int> &labels,
                     float lr, MercuryContext *ctx = nullptr);

    /** Classification accuracy on a labelled set. */
    double accuracy(const Tensor &x, const std::vector<int> &labels,
                    MercuryContext *ctx = nullptr);

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

} // namespace mercury

#endif // MERCURY_NN_NETWORK_HPP
