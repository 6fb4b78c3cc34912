/**
 * @file
 * MERCURY execution context for the NN training framework.
 *
 * When a context is enabled, reuse-capable layers (convolution,
 * dense, attention) run their forward pass through the functional
 * reuse engines instead of exact arithmetic, accumulating the
 * measured reuse statistics. Backward passes compute exact gradients
 * of the perturbed forward, so training "sees" exactly the
 * reuse-induced approximation the hardware would introduce — this is
 * what the accuracy experiments (paper Fig. 13) measure.
 *
 * With backward reuse enabled (§III-C2, AcceleratorConfig::
 * backwardReuse), each layer's forward pass additionally captures its
 * detection outcomes into a SignatureRecord, and the input-gradient
 * pass replays that record through the reuse engines — skipping the
 * grad products of forward-HIT rows with zero detection cost. Weight
 * gradients stay exact either way. Backward statistics accumulate
 * separately (backwardTotals) so the two halves of a training step
 * can be reported against their own baselines.
 */

#ifndef MERCURY_NN_MERCURY_HOOKS_HPP
#define MERCURY_NN_MERCURY_HOOKS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/conv_reuse_engine.hpp"
#include "core/mcache.hpp"
#include "pipeline/detection_frontend.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Shared reuse configuration and statistics for a training run. */
class MercuryContext
{
  public:
    /**
     * @param sig_bits signature length used by all layers
     * @param sets     MCACHE sets
     * @param ways     MCACHE ways
     * @param versions MCACHE data versions
     * @param seed     base seed; each layer derives its projection
     */
    MercuryContext(int sig_bits = 20, int sets = 64, int ways = 16,
                   int versions = 4, uint64_t seed = 0xC0FFEE);

    int signatureBits() const { return sigBits_; }

    /** Grow the signature (adaptive training loops call this). */
    void setSignatureBits(int bits);

    /**
     * Detection-pipeline knobs the layer engines run with. Results
     * are bit-identical across knob values (the threads = 1 default
     * is the legacy path); the knobs trade only throughput. Setting
     * `pipe.overlap` (with threads != 1) makes every layer engine
     * overlap detection with its filter passes via the streaming
     * block hand-off. Setting new knobs discards the cached per-layer
     * frontends and pool.
     */
    const PipelineConfig &pipeline() const { return pipeline_; }
    void setPipeline(const PipelineConfig &pipe);

    /**
     * The layer's detection front-end: the context's shared sharded
     * MCACHE with the layer's projection seed, cached across
     * forward passes so pools and RPQ engines are built once, and
     * running on one worker pool shared by every layer. Sharing one
     * cache across layers is sound because every detection pass
     * clears it first.
     *
     * Lifetime: the reference stays valid until setPipeline() or a
     * setSignatureBits() growth past the frontend's provisioning
     * rebuilds it — re-fetch per forward pass (as the layers do)
     * rather than caching it across configuration changes.
     */
    DetectionFrontend &frontendFor(uint64_t layer_id);

    /** Per-layer deterministic projection seed. */
    uint64_t layerSeed(uint64_t layer_id) const;

    // ---- Persistent-cache lifecycle (serving layer) -----------------
    //
    // With `pipeline().persistent` set, detection passes stop clearing
    // MCACHE, so the cross-layer shared cache of the default mode is
    // no longer sound (different layers hash with different
    // projections). The context then gives every layer its own
    // private ShardedMCache — unless an external provider is
    // installed, in which case the caller (MercuryServer) owns the
    // per-layer caches and may share them across contexts/tenants.

    /**
     * Externally owned per-layer caches: when set, frontendFor binds
     * each layer's frontend to `provider(layer_id)` instead of a
     * context-owned cache. The provided caches must outlive this
     * context's frontends (i.e. the context, or the next
     * setLayerCacheProvider / setPipeline call, whichever is first).
     * Installing a provider discards the cached frontends; installing
     * nullptr reverts to context-owned caches.
     */
    using LayerCacheProvider = std::function<ShardedMCache &(uint64_t)>;
    void setLayerCacheProvider(LayerCacheProvider provider);

    /**
     * Stamp subsequent MCACHE inserts of every context-owned cache
     * (current and future) with `tenant` (quota/eviction accounting;
     * -1 = unowned).
     */
    void setTenant(int tenant);
    int tenant() const { return tenant_; }

    /**
     * Move the context-owned caches to `epoch`: inserts and HIT
     * refreshes from now on stamp it. No-op for provider-owned caches
     * (their owner drives the epoch).
     */
    void setEpoch(uint64_t epoch);
    uint64_t epoch() const { return epoch_; }

    /** Evict unpinned lines older than `min_epoch` from every
     *  context-owned cache; returns lines evicted. */
    int64_t evictOlderThan(uint64_t min_epoch);

    /** Drop every valid tag in every context-owned cache (cold start). */
    void clearCaches();

    /** Layer ids with a context-owned persistent cache (snapshotting). */
    std::vector<uint64_t> persistentCacheIds() const;

    /** A layer's context-owned persistent cache; panics if absent. */
    ShardedMCache &persistentCache(uint64_t layer_id);

    /**
     * Reuse saved signatures in the backward pass (§III-C2): when
     * set, reuse-capable layers capture a SignatureRecord on forward
     * and replay it through the engines' backward filter passes,
     * skipping the input-gradient products of forward-HIT rows.
     * Off by default: backward then computes exact gradients of the
     * perturbed forward, the legacy accuracy-experiment setup.
     */
    void setBackwardReuse(bool enabled) { backwardReuse_ = enabled; }
    bool backwardReuse() const { return backwardReuse_; }

    /**
     * Reuse saved signatures in the weight-gradient pass (§III-C2 on
     * Eq. 1, AcceleratorConfig::weightGradReuse): when set,
     * reuse-capable layers capture a SignatureRecord on forward (the
     * same record backwardReuse uses — one captured detection pass
     * feeds both) and compute dW by sum-then-multiply: the output
     * gradients of each forward hit-group are summed first, then one
     * multiply runs per group through the owner's input patch. Off by
     * default: weight gradients are then exact gradients of the
     * perturbed forward.
     */
    void setWeightGradReuse(bool enabled) { weightGradReuse_ = enabled; }
    bool weightGradReuse() const { return weightGradReuse_; }

    /** True when layers must capture a record on forward. */
    bool capturesRecords() const
    {
        return backwardReuse_ || weightGradReuse_;
    }

    /** Accumulate one forward engine invocation's statistics. */
    void accumulate(const ReuseStats &stats);

    /** Accumulate one backward (replay) invocation's statistics. */
    void accumulateBackward(const ReuseStats &stats);

    /** Accumulate one weight-gradient (replay) invocation's stats. */
    void accumulateWeightGrad(const ReuseStats &stats);

    /** Forward totals since construction (or resetStats). */
    const ReuseStats &totals() const { return totals_; }

    /** Backward-replay totals since construction (or resetStats). */
    const ReuseStats &backwardTotals() const { return backwardTotals_; }

    /** Weight-gradient-replay totals since construction. */
    const ReuseStats &weightGradTotals() const
    {
        return weightGradTotals_;
    }

    void resetStats();

  private:
    int sigBits_;
    int sets_;
    int ways_;
    int versions_;
    uint64_t seed_;
    bool backwardReuse_ = false;
    bool weightGradReuse_ = false;
    PipelineConfig pipeline_;
    // Pool and cache must outlive the frontends holding pointers to
    // them (members destroy in reverse declaration order).
    std::unique_ptr<ThreadPool> pool_;         // shared by all frontends
    std::unique_ptr<ShardedMCache> shared_;    // shared by all frontends
    /// Per-layer private caches of persistent mode (see
    /// setLayerCacheProvider); must outlive frontends_ too.
    std::map<uint64_t, std::unique_ptr<ShardedMCache>> perLayer_;
    LayerCacheProvider cacheProvider_;
    int tenant_ = -1;
    uint64_t epoch_ = 0;
    std::map<uint64_t, std::unique_ptr<DetectionFrontend>> frontends_;
    ReuseStats totals_;
    ReuseStats backwardTotals_;
    ReuseStats weightGradTotals_;

    ThreadPool *sharedPool();
    ShardedMCache &sharedCache();
    ShardedMCache &cacheForLayer(uint64_t layer_id);
};

} // namespace mercury

#endif // MERCURY_NN_MERCURY_HOOKS_HPP
