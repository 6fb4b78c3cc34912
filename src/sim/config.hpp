/**
 * @file
 * Accelerator configuration knobs shared by the timing models and the
 * MERCURY engines.
 *
 * Defaults follow the paper's experimental setup (§VI): an
 * Eyeriss-style row-stationary machine with 168 PEs, and a 1024-entry
 * 16-way MCACHE (64 sets).
 */

#ifndef MERCURY_SIM_CONFIG_HPP
#define MERCURY_SIM_CONFIG_HPP

#include <cstdint>

#include "sim/sim_config.hpp"

namespace mercury {

/** Which spatial dataflow the accelerator implements (§II-B, §IV). */
enum class DataflowKind
{
    RowStationary,
    WeightStationary,
    InputStationary,
};

/** Printable name of a dataflow. */
const char *dataflowName(DataflowKind kind);

/** Static hardware configuration of the simulated accelerator. */
struct AcceleratorConfig
{
    /** Number of hardware PEs (Eyeriss uses 168). */
    int numPEs = 168;

    /** Spatial dataflow of the machine. */
    DataflowKind dataflow = DataflowKind::RowStationary;

    /**
     * Asynchronous PE-set design (§III-C1). When false, PE sets
     * barrier after every filter pass (synchronous design).
     */
    bool asyncDesign = true;

    /** Shared filter-buffer slots M available to the async design. */
    int filterBufferSlots = 4;

    /**
     * Cycle-accounting knobs — backend selection, the MCACHE/PE
     * service constants, and the event-model memory hierarchy — all
     * grouped in sim/sim_config.hpp with defaults documented there.
     */
    SimConfig sim;

    /** MCACHE organization: sets x ways entries in total. */
    int mcacheSets = 64;
    int mcacheWays = 16;

    /** Filter results stored per MCACHE line (multi-version data). */
    int mcacheDataVersions = 4;

    /** Initial RPQ signature length in bits (§III-D). */
    int initialSignatureBits = 20;

    /** Upper bound on adaptive signature growth. */
    int maxSignatureBits = 64;

    /**
     * Iterations of flat loss before the signature length grows by
     * one bit (K in §III-D).
     */
    int plateauK = 5;

    /**
     * Consecutive batches where similarity detection costs more than
     * it saves before a layer's detection is switched off (T in
     * §III-D).
     */
    int stoppageT = 3;

    /**
     * Detection-pipeline front-end knobs (src/pipeline): rows per
     * projection work block (positive) and worker threads (1 =
     * single-threaded legacy path, 0 = auto-detect; the pool hashes
     * live passes and runs the replays). Results are bit-identical
     * across all values; the knobs trade only throughput.
     */
    int64_t pipelineBlockRows = 64;
    int pipelineThreads = 1;

    /**
     * Overlap detection with compute (§III-B, Fig. 8), in the timing
     * model only: signature generation streams ahead of the filter
     * passes, so only the portion of signature generation that
     * exceeds the layer's compute time stays on the critical path.
     * The functional engines run one schedule whatever this says.
     */
    bool overlapDetection = false;

    /**
     * Reuse saved signatures in the backward pass (§III-C2): the
     * input-gradient pass of every reuse-capable layer replays the
     * forward pass's SignatureRecord — skipping the grad products of
     * forward-HIT rows — instead of running (or paying for) a second
     * detection pass. In the timing model the backward signature cost
     * becomes the replay-only charge (one Signature Table read per
     * vector) rather than a full regeneration. Functionally the
     * backward outputs are bit-identical to the exact input gradient
     * whenever the forward pass recorded no hits.
     */
    bool backwardReuse = false;

    /**
     * Reuse saved signatures in the weight-gradient pass (§III-C2
     * applied to Eq. 1): dW = X ⊛ dY walks the same forward input
     * patches, so a forward-HIT row's contribution factors through
     * its owner's patch as x_owner ⊗ (Σ dy over the owner's
     * hit-group) — the output gradients of each hit-group are summed
     * first (cheap adds), then one multiply runs per group
     * (sum-then-multiply). In the timing model the dW pass shrinks by
     * the forward hit fraction, pays the per-group accumulate adds
     * and the replay-only signature charge, and performs no MCACHE
     * inserts. Functionally the dW outputs are bit-identical to the
     * exact weight gradient whenever the forward pass recorded no
     * hits, and exact up to float-summation order otherwise.
     */
    bool weightGradReuse = false;

    /** Total MCACHE entries. */
    int mcacheEntries() const { return mcacheSets * mcacheWays; }
};

} // namespace mercury

#endif // MERCURY_SIM_CONFIG_HPP
