/**
 * @file
 * sim::CostModel — the unified entry API of the timing layer.
 *
 * Every consumer of cycle estimates (the MercuryAccelerator training
 * driver, the fig/bench binaries, the MercuryServer stat path) asks
 * one interface:
 *
 *   auto model = sim::CostModel::create(cfg);       // backend by name
 *   LayerCycles c = model->layerCost(shape, ...);   // one layer
 *   CostBreakdown s = model->stepCost(stack, ...);  // a whole step
 *
 * and the backend — AnalyticModel (the closed-form Dataflow
 * arithmetic) or EventModel (the discrete-event memory-hierarchy
 * replay in src/sim/event_model/) — is picked by SimConfig::backend /
 * MERCURY_SIM_BACKEND, never by a hard call into a concrete class.
 *
 * A step is described once, as a std::vector<LayerShape> stack (the
 * model zoo's layer tables, or Network::describeStep for a live
 * network), and both backends price it through one step schedule
 * (CostModel::scheduleStep): per-layer cycles, each layer's pass
 * descriptor, the fused conv→conv edges, the setup charge and the
 * record hold decision.
 *
 * Contract: under the default (compute-bound) SimConfig the two
 * backends agree on the pinned VGG13/MobileNetV2 validation points
 * (asserted in tests/test_eventsim.cpp); the event backend adds
 * memory-hierarchy stalls only where contention is real (small
 * buffers, few banks, record-replay thrash).
 */

#ifndef MERCURY_SIM_COST_MODEL_HPP
#define MERCURY_SIM_COST_MODEL_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/dataflow.hpp"
#include "sim/layer_shape.hpp"

namespace mercury {
namespace sim {

/** Per-pass / per-layer schedule-setup charge of a barriered step
 *  (descriptor construction, knob resolution, buffer allocation),
 *  which a planned schedule pays once and amortizes away.
 *  Cycle-denominated like every Dataflow cost. */
constexpr uint64_t kSetupCyclesPerPass = 64;
constexpr uint64_t kSetupCyclesPerLayer = 512;

/** SignatureRecords above this many bytes are spilled to the global
 *  buffer between the forward and the gradient passes (the event
 *  backend charges the traffic); smaller ones are held. Functional
 *  execution always holds — host memory is the spill target. */
constexpr uint64_t kHoldRecordBytes = 8ull << 20;

/** Per-component counters of one event-model run (zero under the
 *  analytic backend). Printed by EventModel consumers per component:
 *  occupancy, bank conflicts, stalls by cause. */
struct ComponentStats
{
    struct DramStats
    {
        uint64_t requests = 0;
        uint64_t bytes = 0;
        uint64_t rowHits = 0;
        uint64_t rowMisses = 0;
        uint64_t bankConflictCycles = 0;
        uint64_t busyCycles = 0;
    } dram;

    struct GlobalBufferStats
    {
        uint64_t accesses = 0;
        uint64_t bytes = 0;
        uint64_t bankConflictCycles = 0;
        uint64_t fills = 0;         ///< DRAM fills (buffer misses)
        uint64_t pendingStallCycles = 0; ///< MSHR slots exhausted
        uint64_t spillBytes = 0;    ///< record bytes past capacity
    } gbuf;

    struct McacheStats
    {
        uint64_t probes = 0;
        uint64_t hits = 0;
        uint64_t inserts = 0;
        uint64_t insertSerialCycles = 0;
    } mcache;

    struct PeStats
    {
        uint64_t passes = 0;
        uint64_t busyCycles = 0;
        uint64_t memStallCycles = 0; ///< waiting on GB/DRAM streams
    } pe;

    ComponentStats &operator+=(const ComponentStats &other);

    /**
     * One line per component into stdout (bench reporting). DRAM
     * occupancy is the share of the `dram_banks` banks' cycles over
     * `total_cycles` that were busy (SimConfig::dramBanks).
     */
    void print(uint64_t total_cycles, int dram_banks) const;
};

/** Cycle totals of one multi-layer training step under a backend. */
struct CostBreakdown
{
    /** Aggregate per-layer decomposition (fwd + gradient passes per
     *  the config's reuse knobs). Under the event backend, exposed
     *  memory stalls are folded into `cycles.computation`. */
    LayerCycles cycles;

    /** Per-layer-barrier step: every layer drains before the next
     *  starts and the schedule setup is re-derived per step. */
    uint64_t barrierCycles = 0;
    /** Planned-schedule step: setup amortized away, and on each fused
     *  conv→conv edge (convs separated only by pools) the successor's
     *  signature hides under the predecessor's trailing drain. */
    uint64_t plannedCycles = 0;

    uint64_t setupCycles = 0;
    uint64_t hiddenSignature = 0;
    int fusedEdges = 0;

    /** Event backend: critical-path cycles lost to the memory
     *  hierarchy (zero analytic / uncontended). */
    uint64_t memoryStallCycles = 0;

    /** Event backend: per-component counters. */
    ComponentStats components;

    /** Baseline / MERCURY speedup of the aggregate cycles. */
    double speedup() const { return cycles.speedup(); }

    /** Barriered / planned step speedup. */
    double stepSpeedup() const
    {
        return plannedCycles > 0 ? static_cast<double>(barrierCycles) /
                                       static_cast<double>(plannedCycles)
                                 : 1.0;
    }
};

/** One stack entry as both backends schedule it: its cycles and its
 *  pass descriptor, derived from its LayerShape. */
struct LayerStep
{
    /** Forward decomposition (pools: their baseline as computation). */
    LayerCycles forward;
    /** Gradient passes the config's reuse knobs enable (else zero). */
    LayerCycles gradient;
    /** Detection passes per forward (conv: one per image and input
     *  channel; FC: one per minibatch; attention: one per sample;
     *  pools: none), and the raw input bytes each streams. */
    int64_t passes = 0;
    int64_t inputBytesPerPass = 0;
    /** Signature cycles hidden under the fused predecessor's trailing
     *  channel-pass drain (zero off a fused edge). */
    uint64_t hiddenSignature = 0;
    /** SignatureRecord bytes captured for the gradient passes (zero
     *  when neither gradient knob is on), and whether they fit the
     *  hold threshold (kHoldRecordBytes) or spill. */
    uint64_t recordBytes = 0;
    bool holdRecord = true;
};

/** The step structure both backends price. */
struct StepSchedule
{
    std::vector<LayerStep> layers; ///< one per stack entry
    LayerCycles cycles;            ///< Σ forward + gradient
    uint64_t setupCycles = 0;      ///< Σ per-step schedule setup
    uint64_t hiddenSignature = 0;  ///< Σ LayerStep::hiddenSignature
    int fusedEdges = 0;            ///< conv→conv edges that overlap
};

/** Abstract timing backend (see file header). */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /**
     * Factory keyed on cfg.sim.backend, after the MERCURY_SIM_BACKEND
     * environment override (resolvedSimBackend).
     */
    static std::unique_ptr<CostModel> create(const AcceleratorConfig &cfg);

    virtual SimBackend backend() const = 0;
    const char *name() const { return simBackendName(backend()); }

    const AcceleratorConfig &config() const { return cfg_; }

    // Per-layer queries: both backends answer them from the shared
    // Dataflow closed forms; only stepCost sees the memory hierarchy.

    /** Baseline machine cycles for a whole layer over a batch. */
    uint64_t baselineCycles(const LayerShape &shape, int64_t batch) const;

    /** MERCURY forward cycles of a layer
     *  (Dataflow::mercuryLayerCycles). */
    LayerCycles layerCost(const LayerShape &shape, int64_t batch,
                          const HitMix &channel_mix, int sig_bits,
                          bool saved_signatures = false) const;

    /** Input-gradient pass cycles (Dataflow::backwardLayerCycles). */
    LayerCycles backwardCost(const LayerShape &shape, int64_t batch,
                             const HitMix &channel_mix, int sig_bits,
                             bool include_weight_grad = false) const;

    /** Weight-gradient pass cycles (Dataflow::weightGradLayerCycles). */
    LayerCycles weightGradCost(const LayerShape &shape, int64_t batch,
                               const HitMix &channel_mix,
                               int sig_bits) const;

    /** SignatureRecord bytes held between forward and backward. */
    uint64_t recordBytes(const LayerShape &shape, int64_t batch,
                         int sig_bits) const;

    /**
     * Whole-step cost over a layer stack: one channel-pass mix per
     * layer (same convention as Dataflow::mercuryLayerCycles; entries
     * for non-reusable layers are ignored), forward plus the gradient
     * passes the config's reuse knobs enable, with the barrier /
     * planned view (setup amortization, fused conv→conv edges).
     * Panics unless there is one mix per layer.
     */
    virtual CostBreakdown stepCost(const std::vector<LayerShape> &stack,
                                   const std::vector<HitMix> &mixes,
                                   int64_t batch, int sig_bits) const = 0;

  protected:
    explicit CostModel(const AcceleratorConfig &cfg);

    /**
     * Schedule one step over a stack (the stepCost contract). Fused
     * edges join convs separated only by pool entries; each hides at
     * most one trailing channel-pass of predecessor compute worth of
     * successor signature time — the window that opens once output
     * channel 0 of image 0 is final. Reusable layers are charged
     * kSetupCyclesPerLayer plus kSetupCyclesPerPass per forward pass
     * (the gradient passes replay the forward schedule). Panics
     * unless there is one mix per layer, before reading any.
     */
    StepSchedule scheduleStep(const std::vector<LayerShape> &stack,
                              const std::vector<HitMix> &mixes,
                              int64_t batch, int sig_bits) const;

    AcceleratorConfig cfg_;
    std::unique_ptr<Dataflow> flow_; ///< the one model of compute
};

/** The closed-form backend: Dataflow per layer plus the step schedule
 *  — every gated BENCH_*.json modeled number reproduces through it.
 *  The barriered step is the schedule's total plus its setup charge;
 *  the planned step is the total minus the fused edges' hidden
 *  signature time. */
class AnalyticModel : public CostModel
{
  public:
    explicit AnalyticModel(const AcceleratorConfig &cfg);

    SimBackend backend() const override { return SimBackend::Analytic; }

    CostBreakdown stepCost(const std::vector<LayerShape> &stack,
                           const std::vector<HitMix> &mixes,
                           int64_t batch, int sig_bits) const override;

};

/**
 * The active backend name an AcceleratorConfig resolves to (factory
 * selection without constructing a model) — what benches record as
 * `config.sim_backend` in every ResultLine.
 */
const char *resolvedBackendName(const AcceleratorConfig &cfg);

} // namespace sim
} // namespace mercury

#endif // MERCURY_SIM_COST_MODEL_HPP
