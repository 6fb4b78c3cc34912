/**
 * @file
 * Timing model of planned step execution (core/runtime_planner.hpp):
 * what does compiling the pass graph once buy a multi-layer training
 * step on the accelerator over the per-layer-barrier baseline?
 *
 * Two effects are modeled over the compiled StepPlan:
 *
 *  - Setup amortization. Every unplanned step re-derives per-layer
 *    schedule state before any MAC runs: pass descriptors, tuning-knob
 *    resolution, buffer (re)allocation. That work scales with the
 *    layer's pass count, not its MACs, so it is charged per detection
 *    pass plus a per-layer constant. A planned step pays it once at
 *    plan bind and replays the schedule afterwards, so the steady-state
 *    per-step charge drops to (amortized) zero.
 *
 *  - Cross-layer overlap. With per-layer barriers, layer k+1's
 *    signature generation cannot start before layer k fully drains.
 *    The plan's dependency edges launch the successor's first hash
 *    while the predecessor's trailing filter ranges drain, so on a
 *    fused conv→conv edge (adjacent convs separated only by
 *    channelwise transforms — ReLU / pooling) the successor hides up
 *    to one trailing channel-pass of predecessor compute worth of its
 *    signature time. Only the exposed remainder stays on the critical
 *    path — the Fig. 8 overlap argument, extended across the layer
 *    boundary.
 *
 * The model is deliberately conservative: edges hide signature time
 * only (never compute or cache overhead), and at most the
 * predecessor's single trailing channel-pass window — the window that
 * opens once output channel 0 of image 0 is final, i.e. after the
 * first filter chain of the last input-channel pass drains.
 */

#ifndef MERCURY_SIM_PLAN_MODEL_HPP
#define MERCURY_SIM_PLAN_MODEL_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/dataflow.hpp"
#include "sim/layer_shape.hpp"

namespace mercury {

/** Per-pass / per-layer schedule-setup charge of an unplanned step
 *  (descriptor construction, knob resolution, buffer allocation).
 *  Cycle-denominated like every Dataflow cost. */
constexpr uint64_t kSetupCyclesPerPass = 64;
constexpr uint64_t kSetupCyclesPerLayer = 512;

/** Cycle totals of one multi-layer step, planned vs barriered. */
struct PlannedStepModel
{
    /** Per-layer-barrier step: compute + exposed signature + cache
     *  overhead + per-step schedule setup. */
    uint64_t barrierCycles = 0;
    /** Planned step: setup amortized away, fused-edge signature time
     *  hidden under the predecessor's trailing drain. */
    uint64_t plannedCycles = 0;

    /** Decomposition (both totals share the base). */
    uint64_t baseCycles = 0;      ///< Σ mercuryTotal over the stack
    uint64_t setupCycles = 0;     ///< per-step setup the plan amortizes
    uint64_t hiddenSignature = 0; ///< signature cycles fused edges hide
    int fusedEdges = 0;           ///< conv→conv edges that overlapped

    double speedup() const
    {
        return plannedCycles > 0 ? static_cast<double>(barrierCycles) /
                                       static_cast<double>(plannedCycles)
                                 : 1.0;
    }
};

/**
 * Model one training step over a layer stack. `mixes` holds one
 * channel-pass HIT mix per layer (same convention as
 * Dataflow::mercuryLayerCycles; entries for non-reusable layers are
 * ignored). Forward always runs; cfg.backwardReuse /
 * cfg.weightGradReuse add the gradient passes with their usual
 * accounting. Conv layers separated only by Pool entries fuse, like
 * RuntimePlanner::compile's channelwise-edge rule.
 *
 * DEPRECATION NOTE: prefer sim::CostModel::stepCost
 * (sim/cost_model.hpp) — identical numbers under the analytic
 * backend, and the same call runs on the event-driven
 * memory-hierarchy sim when SimConfig::backend /
 * MERCURY_SIM_BACKEND selects it. This free function remains as the
 * analytic backend's step arithmetic.
 */
PlannedStepModel modelPlannedStep(const AcceleratorConfig &cfg,
                                  const std::vector<LayerShape> &stack,
                                  const std::vector<HitMix> &mixes,
                                  int64_t batch, int sig_bits);

} // namespace mercury

#endif // MERCURY_SIM_PLAN_MODEL_HPP
