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

#include <algorithm>
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

/**
 * Detection/compute overlap policy (§III-B, Fig. 8). `Auto` defers
 * the decision to pass-resolution time (PipelineConfig::resolvedFor /
 * RuntimePlanner): overlap pays a fixed scheduling tax (chain tasks,
 * hand-off queue, pool wakeups), so it only wins when there are
 * enough worker threads and enough rows per pass to hide that tax —
 * small layers and 1–2-thread hosts resolve to Off (the same streamed
 * schedule, consumed inline), everything else to On. The resolution
 * is a pure function of (threads, rows): it is recorded in the
 * StepPlan by the planner and surfaced in bench `config` blocks.
 * Outcomes are bit-identical across all three values; the knob
 * trades only wall time.
 */
enum class OverlapMode
{
    Off,  ///< stream, but consume inline on the driving thread
    On,   ///< consume on the worker pool (needs one to take effect)
    Auto, ///< resolved per pass from threads x rows
};

/** Printable name of an overlap mode ("off" / "on" / "auto"). */
const char *overlapModeName(OverlapMode mode);

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
     * projection work block, MCACHE shard count (clamped to the set
     * count), and worker threads (1 = single-threaded legacy path,
     * 0 = auto-detect). Results are bit-identical across all values;
     * the knobs trade only throughput. pipelineBlockRows = 0 resolves
     * per pass to the sweep-tuned value for the pass size;
     * pipelineShards = 0 resolves at MCACHE construction to the
     * thread-scaled band (see tunedPipelineFor / bench/sweep_tuning /
     * PipelineConfig::resolvedShards).
     */
    int64_t pipelineBlockRows = 64;
    int pipelineShards = 4;
    int pipelineThreads = 1;

    /**
     * Overlap detection with compute (§III-B, Fig. 8): signature
     * generation streams ahead of the filter passes instead of
     * completing before they start. Functionally, the reuse engines
     * consume the pipeline's per-block hand-off and run filter MACs
     * on the worker pool while later blocks are still hashing (needs
     * pipelineThreads != 1 to take effect). In the timing model, only
     * the portion of signature generation that exceeds the layer's
     * compute time stays on the critical path. Hit/skip decisions and
     * outputs are bit-identical with the knob on or off.
     *
     * OverlapMode::Auto resolves per pass from threads x rows (see
     * the enum): wide passes on multi-core hosts stream, small passes
     * and 1–2-thread hosts fall back to serial.
     */
    OverlapMode overlapDetection = OverlapMode::Off;

    /**
     * Persistent MCACHE across detection passes (serving layer): tags
     * survive from one request to the next instead of being cleared
     * per pass, so near-duplicate rows of *earlier* requests HIT.
     * Outputs stay exact (forwarding is within-pass only); eviction /
     * epochs / quota are the cache owner's job. See
     * PipelineConfig::persistent and docs/ARCHITECTURE.md.
     */
    bool persistentCache = false;

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

/** Sweep-tuned pipeline knobs for one detection-pass size. */
struct PipelineTuning
{
    int64_t blockRows;
    int shards;
};

/**
 * Per-layer-size pipeline defaults picked by bench/sweep_tuning over
 * ImageNet-scale layer shapes (ResNet-50 conv sizes at 224x224
 * inputs; recorded in BENCH_tuning.json). Measured: passes with
 * cheap per-row hashing (3x3 kernels, d = 9) are flat across block
 * sizes, so they keep the stock 64-row blocks; the large-vector stem
 * pass (12544 rows, d = 49) peaks at 128-row blocks (+13% over 64).
 *
 * Shards (wall-clock item): the single-core sweep measured 4 as the
 * floor, and shard counts beyond the number of concurrently probing
 * threads cannot help — every extra shard is lock and merge overhead
 * with no probe parallelism to hide it. The band therefore tracks
 * `resolved_threads` (pass ThreadPool::resolveThreads of the thread
 * knob; 0/1 = unknown or serial keeps the measured 4), clamped to
 * [4, 16] — applied at MCACHE construction when pipelineShards = 0
 * (PipelineConfig::resolvedShards). The CI wall-clock job's
 * `wall-clock-multicore` artifact
 * carries the measured multi-core `wall_*` speedups plus this band's
 * confirmation, rendered by tools/wallclock_roadmap.py — re-pin from
 * that artifact when a bigger host class appears. The shard value
 * applies at MCACHE construction (shards are baked into the
 * ShardedMCache); blockRows is applied per pass when
 * pipelineBlockRows = 0 (auto).
 */
inline PipelineTuning
tunedPipelineFor(int64_t rows_per_pass, int resolved_threads = 1)
{
    const int shards = std::clamp(resolved_threads, 4, 16);
    if (rows_per_pass <= 4096)
        return {64, shards};
    return {128, shards};
}

} // namespace mercury

#endif // MERCURY_SIM_CONFIG_HPP
