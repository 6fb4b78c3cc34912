/**
 * @file
 * EventModel: the discrete-event sim::CostModel backend.
 *
 * One EventLoop ticks four components per step — banked open-row DRAM
 * (dram.hpp), a banked GlobalBuffer with MSHR-style pending slots
 * (global_buffer_sim.hpp), the MCACHE set-queue traffic (mcache_sim.hpp)
 * and the PE array (pe_array_sim.hpp). The workload is the layer
 * stack's step schedule (CostModel::scheduleStep, shared with the
 * analytic backend), whose pass descriptors come from the LayerShapes:
 * each detection pass is an event that streams its input plane
 * (double-buffered: pass k's stream issues at pass k-1's start),
 * executes on the PE array when its operands arrive, and drains its
 * MAU inserts through the set queues.
 *
 * Compute service times are NOT re-derived: a layer's pass services
 * sum to exactly the Dataflow closed-form totals the analytic backend
 * reports (split evenly across the layer's pass count), and the insert
 * serialization per pass is the identical insertOverhead arithmetic.
 * The event machinery therefore adds only what the closed forms
 * cannot see — cold streams, bank conflicts, pending-slot exhaustion,
 * record write/replay traffic — so on compute-bound points the two
 * backends agree (asserted in tests/test_eventsim.cpp) and they
 * diverge exactly where contention is real (shrunk buffers, few
 * banks, captured-record replay).
 *
 * Fidelity (SimConfig::fidelity): PerPass replays every detection
 * pass; Sampled replays the first two passes of each layer in full
 * detail (cold + steady) and extrapolates the steady pass across the
 * remainder — the ImageNet-scale sweep setting.
 */

#ifndef MERCURY_SIM_EVENT_MODEL_EVENT_MODEL_HPP
#define MERCURY_SIM_EVENT_MODEL_EVENT_MODEL_HPP

#include "sim/cost_model.hpp"

namespace mercury {
namespace sim {

class EventModel : public CostModel
{
  public:
    explicit EventModel(const AcceleratorConfig &cfg);

    SimBackend backend() const override { return SimBackend::Event; }

    CostBreakdown stepCost(const std::vector<LayerShape> &stack,
                           const std::vector<HitMix> &mixes,
                           int64_t batch, int sig_bits) const override;
};

} // namespace sim
} // namespace mercury

#endif // MERCURY_SIM_EVENT_MODEL_EVENT_MODEL_HPP
