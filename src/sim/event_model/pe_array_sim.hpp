/**
 * @file
 * PE array of the event backend. The array executes one detection
 * pass at a time (the engines' single-driver contract); a pass's
 * compute service time comes from the Dataflow closed forms — the
 * SAME per-layer totals the analytic backend reports, split across
 * the layer's pass count — so this component contributes no arithmetic
 * of its own. What it adds is the schedule: a pass cannot start
 * before its operands arrive, and cycles the array sits idle waiting
 * on the memory hierarchy are charged to memStallCycles (the
 * occupancy / stall-by-cause numbers of the sweep report).
 */

#ifndef MERCURY_SIM_EVENT_MODEL_PE_ARRAY_SIM_HPP
#define MERCURY_SIM_EVENT_MODEL_PE_ARRAY_SIM_HPP

#include <algorithm>
#include <cstdint>

#include "sim/cost_model.hpp"

namespace mercury {
namespace sim {

class PeArraySim
{
  public:
    /**
     * Run one pass whose operands are ready at `ready` and whose
     * compute service is `compute` cycles. Returns the completion
     * cycle; idle time between the array freeing and the operands
     * arriving is the memory stall.
     */
    uint64_t executePass(uint64_t ready, uint64_t compute)
    {
        const uint64_t t0 = std::max(ready, freeAt_);
        if (ready > freeAt_)
            stats_.memStallCycles += ready - freeAt_;
        ++stats_.passes;
        stats_.busyCycles += compute;
        freeAt_ = t0 + compute;
        return freeAt_;
    }

    /** Release the array at `cycle` (layer hand-off). */
    void skipTo(uint64_t cycle) { freeAt_ = std::max(freeAt_, cycle); }

    uint64_t freeAt() const { return freeAt_; }

    const ComponentStats::PeStats &stats() const { return stats_; }

  private:
    uint64_t freeAt_ = 0;
    ComponentStats::PeStats stats_;
};

} // namespace sim
} // namespace mercury

#endif // MERCURY_SIM_EVENT_MODEL_PE_ARRAY_SIM_HPP
