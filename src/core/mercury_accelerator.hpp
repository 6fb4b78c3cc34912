/**
 * @file
 * Top-level MERCURY training simulator.
 *
 * Given a model (a sequence of LayerShapes), a dataflow, and a
 * similarity source (which measures HIT/MAU/MNU mixes by running the
 * real RPQ + MCACHE machinery over representative vectors), the
 * accelerator simulates whole training batches:
 *
 *  - forward propagation per layer, with signature generation;
 *  - backward propagation with two computations per layer (Eq. 1 and
 *    Eq. 2): the weight-gradient pass hashes gradient vectors anew —
 *    or, with weightGradReuse, replays the forward record by
 *    sum-then-multiply — while the input-gradient pass reuses the
 *    signatures saved during the forward pass of the consumer layer
 *    when the filter dimensions match (§III-C2);
 *  - adaptation: signature growth on loss plateaus and per-layer
 *    stoppage when detection costs more than it saves (§III-D).
 */

#ifndef MERCURY_CORE_MERCURY_ACCELERATOR_HPP
#define MERCURY_CORE_MERCURY_ACCELERATOR_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/dataflow.hpp"
#include "sim/layer_shape.hpp"

namespace mercury {

/** Which training computation a similarity query is for. */
enum class Phase
{
    Forward,        ///< inputs x weights
    BackwardWeight, ///< output gradients x saved inputs (Eq. 1)
    BackwardInput,  ///< output gradients x weights (Eq. 2)
};

/**
 * Provider of channel-pass HIT/MAU/MNU mixes. Implementations run
 * the real similarity detector over representative vector
 * populations (see workloads/), or return fixed mixes in tests.
 */
class SimilaritySource
{
  public:
    virtual ~SimilaritySource() = default;

    /** Mix of one channel pass of `shape` at `sig_bits` in `phase`. */
    virtual HitMix channelMix(const LayerShape &shape, int sig_bits,
                              Phase phase) = 0;
};

/** Per-layer outcome of a training simulation. */
struct LayerReport
{
    std::string name;
    LayerType type = LayerType::Conv;
    LayerCycles cycles;       ///< accumulated over all batches
    bool detectionOn = true;  ///< adaptive state at the end
    HitMix lastForwardMix;    ///< mix of the final forward pass
};

/** Whole-model outcome of a training simulation. */
struct TrainingReport
{
    std::vector<LayerReport> layers;
    LayerCycles totals;
    int finalSignatureBits = 0;
    int layersOn = 0;
    int layersOff = 0;

    double speedup() const { return totals.speedup(); }

    /** Fraction of MERCURY cycles spent generating signatures. */
    double signatureFraction() const;
};

/** The MERCURY accelerator simulation driver. */
class MercuryAccelerator
{
  public:
    /**
     * @param cfg   hardware configuration (dataflow, MCACHE, ...)
     * @param model layer descriptors, first to last
     */
    MercuryAccelerator(const AcceleratorConfig &cfg,
                       std::vector<LayerShape> model);

    const std::vector<LayerShape> &model() const { return model_; }

    /**
     * Simulate training.
     *
     * @param source   similarity mixes measured per layer/phase
     * @param batches  number of minibatches to simulate
     * @param batch    minibatch size
     * @param loss_fn  training-loss trace driving the adaptive
     *                 signature growth; defaults to a smooth decaying
     *                 curve that plateaus (so adaptation engages)
     * @param warmup_batches batches run before cycle accounting
     *                 starts: adaptation (per-layer stoppage,
     *                 signature growth) evolves but neither baseline
     *                 nor MERCURY cycles accumulate. Real training
     *                 runs for thousands of batches, so the
     *                 adaptation transient is negligible; warmup
     *                 models that steady state in a short simulation.
     */
    TrainingReport train(SimilaritySource &source, int batches,
                         int64_t batch,
                         std::function<double(int)> loss_fn = {},
                         int warmup_batches = 0);

    /**
     * Baseline cycles for one full training batch (forward plus both
     * backward computations for every layer).
     */
    uint64_t baselineBatchCycles(int64_t batch) const;

  private:
    AcceleratorConfig config_;
    std::vector<LayerShape> model_;
    std::unique_ptr<sim::CostModel> cost_; ///< backend by name

    /** True when layer l+1 lets layer l reuse forward signatures. */
    bool backwardReusesSignatures(size_t l) const;
};

} // namespace mercury

#endif // MERCURY_CORE_MERCURY_ACCELERATOR_HPP
