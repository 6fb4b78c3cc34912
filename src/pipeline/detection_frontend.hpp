/**
 * @file
 * DetectionFrontend: the one-stop similarity front-end the reuse
 * engines, workloads, and NN hooks consume.
 *
 * A frontend owns (or wraps) the MCACHE, provisions an RPQEngine per
 * vector dimension on demand, and routes every detection pass through
 * the streaming DetectionPipeline — so callers no longer assemble
 * RPQEngine + MCache + SimilarityDetector by hand, and every consumer
 * picks up the pipeline knobs (block size, shards, threads) from one
 * place. Every pass is the same two halves, beginHashStream and
 * finishStream; detect() is the two with no consumer. Replays do not
 * come through here: ReuseRuntime hands a recorded pass's row ranges
 * to its consumers directly.
 *
 * Results are bit-identical to SimilarityDetector over a monolithic
 * MCache for any block size, shard count and thread count.
 *
 * Concurrency contract: one thread drives a frontend's detection
 * passes (detect / detectStream / detectSampled) at a time — the
 * frontend fans work out internally. The RPQ provisioning map and the
 * lazy pool are owned by the driving thread, so two threads must not
 * run passes on one frontend concurrently.
 */

#ifndef MERCURY_PIPELINE_DETECTION_FRONTEND_HPP
#define MERCURY_PIPELINE_DETECTION_FRONTEND_HPP

#include <cstdint>
#include <map>
#include <memory>

#include "core/rpq.hpp"
#include "pipeline/detection_pipeline.hpp"
#include "pipeline/sharded_mcache.hpp"
#include "pipeline/signature_record.hpp"
#include "sim/config.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Pipeline-backed similarity detection front-end. */
class DetectionFrontend
{
  public:
    /**
     * Owning form: builds a ShardedMCache with the given organization.
     *
     * @param sets / ways / data_versions  MCACHE organization
     * @param max_bits  maximum signature length to provision per RPQ
     * @param seed      projection seed (shared by every vector dim)
     * @param pipe      pipeline knobs
     */
    DetectionFrontend(int sets, int ways, int data_versions, int max_bits,
                      uint64_t seed, PipelineConfig pipe = {});

    /**
     * View form: wrap an externally owned MCache (single shard). This
     * is how the legacy engine constructors share a caller-provided
     * cache; stage-1 blocking and threading still apply.
     */
    DetectionFrontend(MCache &cache, int max_bits, uint64_t seed,
                      PipelineConfig pipe = {});

    /**
     * Shared-cache form: run against an externally owned sharded
     * cache, which must outlive the frontend. Lets many frontends
     * (e.g. one per NN layer, each with its own projection seed)
     * share one MCACHE allocation; fine because every detection pass
     * clears the cache first.
     */
    DetectionFrontend(ShardedMCache &cache, int max_bits, uint64_t seed,
                      PipelineConfig pipe = {});

    /** MCACHE organization + pipeline knobs from an accelerator cfg. */
    DetectionFrontend(const AcceleratorConfig &cfg, uint64_t seed);

    DetectionFrontend(const DetectionFrontend &) = delete;
    DetectionFrontend &operator=(const DetectionFrontend &) = delete;

    int maxBits() const { return maxBits_; }
    uint64_t seed() const { return seed_; }
    const PipelineConfig &pipeline() const { return pipe_; }

    /**
     * Run passes on an externally owned worker pool instead of
     * creating a private one — lets many frontends (e.g. one per NN
     * layer) share a single pool. The pool must outlive the frontend;
     * passing nullptr reverts to the private pool.
     */
    void setSharedPool(ThreadPool *pool) { sharedPool_ = pool; }

    /**
     * Run one detection pass over a (num_vectors, d) matrix at the
     * given signature length: beginHashStream + finishStream with no
     * consumer. Clears the cache first; the RPQEngine for dimension d
     * is created on first use and reused afterwards. Returns the pass
     * (packed words, outcomes, entry ids, mix); to keep it for the
     * backward replay (§III-C2), move it into a SignatureRecord with
     * append(pass, dataVersions(), entries()).
     */
    SignatureRecord::Pass detect(const Tensor &rows, int bits);

    /**
     * detect() with a consumer: completed blocks are delivered to
     * `on_block` in ascending block order while later blocks are
     * still hashing on the pool (see DetectionPipeline::finishStreaming
     * for the ordering and lifetime contract). The callback runs on
     * the calling thread; it may submit compute work to workerPool()
     * but must not block on it.
     */
    SignatureRecord::Pass detectStream(const Tensor &rows, int bits,
                                       const BlockConsumer &on_block);

    /**
     * Start the hashing half of a streaming pass (see
     * DetectionPipeline::beginHash): no MCACHE state is touched, so
     * this may run while owner computes of the previous finishStream
     * are still draining — the cross-channel overlap. `rows` must
     * outlive the job; consume the job with finishStream exactly
     * once. One thread drives begin/finish, like every other pass.
     * With a `fill`, `rows` is scratch the filler populates blockwise
     * (fused extraction — the filler's writes must cover every row).
     * Without a pool, hashing is deferred into finishStream.
     */
    std::unique_ptr<DetectionHashJob> beginHashStream(const Tensor &rows,
                                                      int bits,
                                                      RowFiller fill = {});

    /**
     * Probe-and-deliver half of a pass begun with beginHashStream;
     * returns the pass. Engages the shard locks only when the pass
     * resolved overlapped on a pool: probes run on the calling thread
     * alone.
     */
    SignatureRecord::Pass finishStream(DetectionHashJob &job,
                                       const BlockConsumer &on_block);

    /**
     * The pool detection passes fan out to — shared pool if set,
     * otherwise the private pool for the configured thread knob.
     * nullptr when the resolved thread count is 1: every pass then
     * runs inline on the calling thread.
     */
    ThreadPool *workerPool() { return poolFor(); }

    /**
     * Resolved overlap decision for a pass of `rows` vectors: true
     * iff a worker pool exists and the configured mode resolves to On
     * for this pass size (Auto applies the threads x rows policy of
     * PipelineConfig::resolvedOverlapFor). ReuseRuntime gives a pass
     * the worker pool exactly when this holds.
     */
    bool overlapEnabledFor(int64_t rows)
    {
        return poolFor() != nullptr &&
               resolvedPipeFor(rows).overlap == OverlapMode::On;
    }

    /**
     * Memoized per-pass-size pipeline knobs: the auto knobs
     * (blockRows == 0 → tunedPipelineFor) are a pure function of the
     * pass size, yet every pass construction used to re-resolve them.
     * Resolution now happens once per distinct row count — on the
     * first pass of a shape — and knobResolutions() makes the
     * once-per-shape property assertable. `pipe_` is immutable after
     * construction, so memoized entries never go stale. Driving
     * thread only, like every pass entry point. (resolvedShards is
     * already resolved once, at cache construction.)
     */
    const PipelineConfig &resolvedPipeFor(int64_t rows);

    /** Knob resolutions performed (once per distinct pass size). */
    int64_t knobResolutions() const { return knobResolutions_; }

    /**
     * Statistical form for big layers: detect over at most
     * `max_sample` evenly strided rows and scale the mix back to the
     * full population. Exercises the identical pipeline path.
     */
    HitMix detectSampled(const Tensor &rows, int bits,
                         int64_t max_sample);

    /** The sharded cache behind the frontend. */
    ShardedMCache &cache() { return *cache_; }
    const ShardedMCache &cache() const { return *cache_; }

    /** MCACHE organization the engines size their buffers from. */
    int dataVersions() const { return cache_->dataVersions(); }
    int64_t entries() const { return cache_->entries(); }

  private:
    std::unique_ptr<ShardedMCache> ownedCache_;
    ShardedMCache *cache_; // owned or external
    PipelineConfig pipe_;
    int maxBits_;
    uint64_t seed_;
    std::map<int64_t, std::unique_ptr<RPQEngine>> rpqByDim_;
    std::unique_ptr<ThreadPool> pool_; // created lazily for threads > 1
    ThreadPool *sharedPool_ = nullptr; // externally owned override
    std::map<int64_t, PipelineConfig> resolvedByRows_; // knob memo
    int64_t knobResolutions_ = 0;

    RPQEngine &rpqFor(int64_t dim);
    ThreadPool *poolFor();
};

/**
 * Owned-or-shared frontend binding for the reuse engines: wraps a
 * caller-provided MCache in a private frontend view, or references a
 * shared DetectionFrontend, validating the signature length once in
 * one place for every engine.
 */
class FrontendHandle
{
  public:
    /** Private frontend view over a caller-owned cache. */
    FrontendHandle(MCache &cache, int sig_bits, uint64_t seed,
                   const PipelineConfig &pipe, const char *engine);

    /** Bind a shared frontend; sig_bits must fit its provisioning. */
    FrontendHandle(DetectionFrontend &frontend, int sig_bits,
                   const char *engine);

    /** Signature length the owning engine detects with. */
    int signatureBits() const { return sigBits_; }

    /** Access the bound frontend (owned or shared). */
    DetectionFrontend &operator*() const { return frontend_; }
    DetectionFrontend *operator->() const { return &frontend_; }

  private:
    std::unique_ptr<DetectionFrontend> owned_;
    DetectionFrontend &frontend_;
    int sigBits_;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_DETECTION_FRONTEND_HPP
