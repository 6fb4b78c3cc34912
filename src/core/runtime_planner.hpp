/**
 * @file
 * RuntimePlanner: ahead-of-time compilation of one training step's
 * pass graph into a StepPlan, the step descriptor the timing models
 * replay (sim::CostModel::stepCost, sim/plan_model, the event model).
 *
 * Execution does not consume the plan: every layer runs its engines
 * directly, and outputs depend only on values. The plan captures what
 * depends only on layer shapes and configuration, derived from the
 * network's step description in one walk:
 *
 *  - a LayerPlan per reuse-capable layer: resolved pass geometry
 *    (rows, vector dim, pass count, in-flight filter width, backward
 *    slot count), the per-shape pipeline knobs (overlap resolved to
 *    On or Off for the layer's rows), and the SignatureRecord
 *    hold/spill decision (storage-byte prediction vs the hold
 *    threshold) the timing model charges for;
 *
 *  - dependency edges between adjacent conv layers separated only by
 *    channelwise transforms (ReLU / 2x2 max pool): across such an
 *    edge the modeled successor's first detection/hash pass launches
 *    while the predecessor's trailing filter ranges drain (cross-LAYER
 *    overlap — the extension of the engines' cross-channel overlap).
 *    Channelwise transforms keep channel 0 of image 0 self-contained,
 *    and hashing touches only the row tensor and cache geometry
 *    (DetectionHashJob contract), never MCACHE state, so the MCACHE
 *    owner-before-hit ordering contract needs no barrier there.
 *    Barriers remain only where that contract (or a genuine data
 *    dependence through a non-channelwise op) requires them;
 *    StepPlan counts both.
 *
 * Plans are immutable and hold no frontend or cache pointers.
 * exportPassDescriptors flattens one into the backend-neutral records
 * the event model replays; describeShapeStack / shapesFromStepDesc
 * map model-zoo layer tables to and from step descriptions, so a
 * shape stack and a live Network walk compile through the same code.
 */

#ifndef MERCURY_CORE_RUNTIME_PLANNER_HPP
#define MERCURY_CORE_RUNTIME_PLANNER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/detection_pipeline.hpp"
#include "sim/layer_shape.hpp"
#include "tensor/ops.hpp"

namespace mercury {

/** One op of a network's step description (forward order). */
enum class StepOpKind
{
    Conv,       ///< reuse-capable convolution
    Dense,      ///< reuse-capable fully connected layer
    Attention,  ///< reuse-capable self-attention
    Relu,       ///< channelwise; fusable across a conv→conv edge
    MaxPool2x2, ///< channelwise; fusable across a conv→conv edge
    Opaque,     ///< anything else; breaks shape tracking and fusion
};

/** Static description of one layer's step contribution. */
struct LayerStepDesc
{
    StepOpKind kind = StepOpKind::Opaque;
    uint64_t layerId = 0;

    // Conv: spec plus the input spatial dims resolved by the walk.
    ConvSpec conv;
    int64_t inH = 0;
    int64_t inW = 0;

    // Dense.
    int64_t inFeatures = 0;
    int64_t outFeatures = 0;

    // Attention.
    int64_t seqLen = 0;
    int64_t embedDim = 0;
};

/**
 * Collects a network's step description in one forward walk
 * (Layer::describeStep). Tracks the activation shape so conv layers
 * get resolved spatial dims; an Opaque op (or a shape the tracker
 * cannot follow) invalidates 4D tracking — a later conv then marks
 * the whole plan unplannable (the timing models then fall back to
 * per-layer descriptors).
 */
class StepDescBuilder
{
  public:
    explicit StepDescBuilder(const std::vector<int64_t> &input_shape);

    void conv(uint64_t layer_id, const ConvSpec &spec);
    void dense(uint64_t layer_id, int64_t in_features,
               int64_t out_features);
    void attention(uint64_t layer_id, int64_t seq_len, int64_t embed_dim);
    void relu();
    void maxPool2x2();
    void opaque();

    const std::vector<LayerStepDesc> &ops() const { return ops_; }
    int64_t batch() const { return batch_; }
    /** False once a conv was described with untrackable input shape. */
    bool plannable() const { return plannable_; }

  private:
    std::vector<LayerStepDesc> ops_;
    int64_t batch_ = 0;
    // Tracked 4D activation shape (valid4d_ false after flatten /
    // GAP / opaque ops — dense and attention do not need it).
    bool valid4d_ = false;
    int64_t c_ = 0, h_ = 0, w_ = 0;
    bool plannable_ = true;
};

/** Configuration slice that shapes a compiled plan: signature width,
 *  MCACHE organization, pipeline knobs, and the gradient-capture
 *  flags. Seeds, weights and batch values affect values, not
 *  structure, and stay outside. */
struct PlanConfig
{
    int sigBits = 0;
    int sets = 0;
    int ways = 0;
    int dataVersions = 0;
    PipelineConfig pipe;
    bool backwardReuse = false;
    bool weightGradReuse = false;
};

/** Compiled per-layer schedule of one step (immutable). */
struct LayerPlan
{
    LayerStepDesc desc;

    // Pass geometry resolved at compile time.
    int64_t rows = 0;     ///< vectors per detection pass
    int64_t vecDim = 0;   ///< extracted vector dimensionality
    int64_t passes = 0;   ///< detection passes per forward invocation
    int64_t outH = 0;     ///< conv output spatial dims
    int64_t outW = 0;
    int64_t inFlight = 0; ///< conv filters in flight (cout / groups)
    int64_t backwardSlots = 0; ///< grad-column slots (min(versions, inFlight))

    /** Pipeline knobs resolved for this layer's shape, including
     *  the resolved overlap decision — pipe.overlap is On or Off
     *  here, never Auto (PipelineConfig::resolvedOverlapFor applied
     *  to this layer's rows at compile time). */
    PipelineConfig pipe;

    /** Predicted SignatureRecord bytes of a captured forward, and the
     *  plan-time hold (true) vs spill (false) decision the timing
     *  model charges for (functional execution always holds — host
     *  memory is the spill target). */
    uint64_t recordBytes = 0;
    bool holdRecord = true;

    // Cross-layer dependency edge (conv→conv through channelwise
    // transforms only). Indices into StepPlan::layers; -1 = none.
    int nextConv = -1;
    int prevConv = -1;
    /** Transforms interposed on the fused edge, in forward order
     *  (Relu / MaxPool2x2 only). */
    std::vector<StepOpKind> edgeTransforms;
};

/** Compiled whole-step schedule (immutable, shareable). */
struct StepPlan
{
    int64_t batch = 0;
    bool plannable = false;
    /** Reuse-capable layers in forward order. */
    std::vector<LayerPlan> layers;
    /** Knob resolutions compile performed (once per layer shape). */
    int knobResolutions = 0;
    /** Layer-boundary joins the ordering contract retains. */
    int stepBarriers = 0;
    /** Conv→conv edges scheduled for cross-layer overlap. */
    int fusedEdges = 0;

    /** Plan for layer `layer_id`, or null. */
    const LayerPlan *layerPlan(uint64_t layer_id) const;
};

/** Walks a step description once and emits the compiled plan. */
class RuntimePlanner
{
  public:
    static std::shared_ptr<const StepPlan>
    compile(const StepDescBuilder &desc, const PlanConfig &cfg);
};

/**
 * Backend-neutral replay record of one layer's detection passes,
 * exported from a compiled StepPlan for consumers that model the
 * step — the event-model backend replays these through its memory
 * hierarchy, so both timing backends share one workload definition.
 */
struct PassDescriptor
{
    uint64_t layerId = 0;
    StepOpKind kind = StepOpKind::Opaque;

    // Pass geometry (LayerPlan fields, verbatim).
    int64_t rows = 0;     ///< vectors per detection pass
    int64_t vecDim = 0;   ///< extracted vector dimensionality
    int64_t passes = 0;   ///< detection passes per step
    int64_t inFlight = 0; ///< filters in flight per pass

    /**
     * Raw activation bytes one pass streams from its input tensor
     * (conv: one channel plane — patch extraction runs on-chip over
     * the streamed plane; dense / attention: the whole row block).
     */
    int64_t inputBytesPerPass = 0;
    /** Whole input tensor bytes (GlobalBuffer residency decision). */
    int64_t inputTensorBytes = 0;

    /** SignatureRecord bytes held between forward and the gradient
     *  passes, and the plan-time hold (true) vs spill (false) call. */
    uint64_t recordBytes = 0;
    bool holdRecord = true;

    /** Fused conv→conv edge indices into the descriptor vector
     *  (-1 = none): the successor's first hash overlaps the
     *  predecessor's trailing drain. */
    int prevConv = -1;
    int nextConv = -1;
};

/** Export one PassDescriptor per plan layer, in forward order.
 *  Empty when the plan is not plannable. */
std::vector<PassDescriptor> exportPassDescriptors(const StepPlan &plan);

/**
 * Describe a model-zoo layer stack as a step description, so shape
 * stacks compile through RuntimePlanner::compile exactly like a live
 * Network walk (sim::CostModel drives both entry points through one
 * planner). Sequential stacks with chain-consistent geometry (VGG,
 * MobileNet) come out plannable; branching stacks (inception /
 * residual tables, whose listed convs do not chain) and pools other
 * than 2x2/s2 degrade to opaque ops — unplannable, the same verdict a
 * live walk of such a topology would reach.
 */
StepDescBuilder describeShapeStack(const std::vector<LayerShape> &stack,
                                   int64_t batch);

/**
 * Reconstruct the timing-model layer stack of a step description:
 * one LayerShape per reuse op plus one per tracked 2x2 max pool
 * (ReLU / opaque ops carry no cycles). The inverse of
 * describeShapeStack up to layer names; feeds a compiled plan back
 * into the closed-form step model.
 */
std::vector<LayerShape> shapesFromStepDesc(const StepDescBuilder &desc);

} // namespace mercury

#endif // MERCURY_CORE_RUNTIME_PLANNER_HPP
