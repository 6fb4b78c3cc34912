/**
 * @file
 * DetectionPipeline: the streaming, multi-threaded similarity
 * front-end (§III-B, Fig. 7/8).
 *
 * The legacy SimilarityDetector walks a vector population one row at
 * a time: hash, probe, record. The pipeline restructures that hot
 * path into two stages over one flat result, a SignatureRecord::Pass:
 *
 *  1. blocked signature generation — row blocks are projected against
 *     all signature filters at once (RPQEngine::signatureWords), the
 *     software analogue of streaming the PE array with a whole batch,
 *     and sign-packed straight into the pass's packed words;
 *  2. MCACHE probing — each hashed block is probed in global stream
 *     order on the calling thread, so every shard of the ShardedMCache
 *     sees its signatures in exactly the monolithic cache's order. The
 *     probe compares the packed words, writes each row's outcome and
 *     entry id into the pass and counts the mix.
 *
 * The finished pass is the result: the caller reads its mix, or moves
 * it into a SignatureRecord (§III-C2). No Signature, Hitmap or
 * SignatureTable is built on the way.
 *
 * Stage 1 runs across a ThreadPool when one is supplied. Every
 * configuration — any block size, shard count, or thread count,
 * including the threads = 1 degenerate case — produces results
 * bit-identical to the legacy detector: projections accumulate in the
 * same element order, and each MCACHE set sees its signatures in the
 * same stream order.
 *
 * The pipeline is a *streaming producer*: completed signature/hit
 * blocks are handed to a consumer callback in ascending block order
 * while later blocks are still hashing on the pool — the software
 * form of the paper's Fig. 8 overlap of signature generation with PE
 * work. The reuse engines consume this stream to start their owner
 * computes before detection of the remaining rows has finished (see
 * docs/ARCHITECTURE.md). Without a pool the same schedule runs inline:
 * hash, probe, deliver, block by block.
 *
 * A pass splits into two halves so the conv engine can overlap
 * *across channels* as well: beginHash() starts stage 1 for a new row
 * population on the pool — touching no MCACHE state, so it may run
 * while the previous channel's owner computes are still draining —
 * and finishStreaming() then clears the cache, probes the hashed
 * blocks in stream order, and delivers them.
 */

#ifndef MERCURY_PIPELINE_DETECTION_PIPELINE_HPP
#define MERCURY_PIPELINE_DETECTION_PIPELINE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/rpq.hpp"
#include "pipeline/sharded_mcache.hpp"
#include "pipeline/signature_record.hpp"
#include "sim/config.hpp"
#include "util/executors.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Tuning knobs of the detection pipeline. */
struct PipelineConfig
{
    /**
     * Rows per projection work item (stage 1 granularity). 0 = auto:
     * resolved per pass to the sweep-tuned value for the pass size
     * (tunedPipelineFor, bench/sweep_tuning).
     */
    int64_t blockRows = 64;

    /**
     * MCACHE shards (clamped to the set count). 0 = auto: resolved at
     * cache construction to the thread-scaled band (resolvedShards).
     * Probes run on one thread, so this sets only the layout of the
     * cache (and the lock granularity of overlapped passes).
     */
    int shards = 4;

    /** Worker threads: 1 = run inline on the caller, 0 = auto. */
    int threads = 1;

    /**
     * Overlap detection with compute (§III-B, Fig. 8): when On, a
     * reuse pass gets the worker pool — its owner computes run on the
     * pool while later blocks are still hashing. When Off, the same
     * streamed schedule runs its consumers inline on the driving
     * thread (hashing still fans out to the pool, if there is one).
     * Results stay bit-identical; the knob trades only wall time.
     * Without a pool (resolved thread count 1) every pass is inline.
     * Auto resolves per pass from threads x rows
     * (resolvedOverlapFor): the pool hand-off pays a fixed scheduling
     * tax, so small passes and 1–2-thread hosts run inline.
     */
    OverlapMode overlap = OverlapMode::Off;

    /**
     * Rows below which Auto overlap resolves to Off: under ~4 blocks
     * of hashing there is no stream to hide the owner computes behind,
     * and the chain/hand-off tax dominates.
     */
    static constexpr int64_t kAutoOverlapMinRows = 256;

    /**
     * The Auto policy, applied by resolvedFor(): Off/On pass through;
     * Auto becomes On iff the resolved thread count — capped by the
     * host's usable concurrency, so an oversubscribed knob on a
     * 1–2-core host still runs serial — is >= 3 (two workers minimum:
     * one hashing ahead while another computes, besides the driving
     * thread) and the pass has at least kAutoOverlapMinRows rows.
     */
    OverlapMode resolvedOverlapFor(int64_t rows) const;

    /**
     * Persistent MCACHE (serving layer): when true, passes do NOT
     * clear the cache first — tags survive across passes, so rows
     * similar to a *previous* request HIT instead of re-inserting.
     * Correctness is unchanged: result forwarding is strictly
     * within-pass (the engines compute a cross-pass HIT exactly, via
     * their per-pass owner maps), so
     * persistence trades only which rows count as hits. The §V
     * insert-backlog model is still reset per pass. Lifecycle
     * (eviction, epochs, quota) is driven by the cache owner; see
     * docs/ARCHITECTURE.md, "Serving layer".
     */
    bool persistent = false;

    /** Lift the pipeline knobs out of an accelerator configuration. */
    static PipelineConfig fromConfig(const AcceleratorConfig &cfg);

    /**
     * Effective knobs for a pass over `rows` vectors: blockRows == 0
     * (auto) resolves to the sweep-tuned block size for the pass
     * size, and overlap == Auto resolves to On/Off via
     * resolvedOverlapFor; explicit values pass through untouched.
     */
    PipelineConfig resolvedFor(int64_t rows) const;

    /**
     * Effective shard count for MCACHE construction: shards == 0
     * (auto) resolves to the tunedPipelineFor band for the resolved
     * thread count; explicit values pass through untouched (the
     * ShardedMCache still clamps to its set count).
     */
    int resolvedShards() const;
};

/**
 * One block of detection results delivered by finishStreaming: rows
 * [row0, row1) of the pass being probed, read through outcome() and
 * entryId() by absolute row.
 *
 * Lifetime contract: `pass` is valid only for the duration of the
 * consumer callback — the pass is still being probed past row1, and
 * finishStreaming moves it out when it returns. A consumer that
 * schedules asynchronous work against a block (as the overlapped
 * engines do) must copy what it needs before returning from the
 * callback.
 */
struct DetectionBlock
{
    int64_t index = 0;  ///< block sequence number, delivered ascending
    int64_t row0 = 0;   ///< first row of the block
    int64_t row1 = 0;   ///< one past the last row
    const SignatureRecord::Pass *pass = nullptr; ///< probed up to row1

    int64_t rows() const { return row1 - row0; }

    /** MCACHE outcome of row i, row0 <= i < row1. */
    McacheOutcome outcome(int64_t i) const { return pass->outcome(i); }

    /** MCACHE entry id of row i (-1 for MNU), row0 <= i < row1. */
    int64_t entryId(int64_t i) const { return pass->entryId(i); }
};

/** Consumer of the streaming per-block hand-off. */
using BlockConsumer = std::function<void(const DetectionBlock &)>;

/**
 * Producer of the rows being detected (single-touch fused blocks):
 * when a pass is given a RowFiller, rows [row0, row1) of the row
 * tensor are materialized by calling it immediately before that
 * range is projected — extraction, projection, and sign-pack then
 * walk the block once while it is cache-hot, instead of extraction
 * streaming the whole tensor first. Fillers must write only their
 * [row0, row1) range (disjoint ranges run concurrently on the pool)
 * and must be callable from worker threads. Every row of the tensor
 * is filled exactly once per pass, so the tensor is fully
 * materialized by the time the pass's results are delivered —
 * downstream owner computes read it as if it had been pre-extracted.
 */
using RowFiller = std::function<void(int64_t row0, int64_t row1)>;

/**
 * In-flight stage-1 (hashing) half of a streaming detection pass,
 * created by DetectionPipeline::beginHash and consumed exactly once
 * by DetectionPipeline::finishStreaming.
 *
 * While a job is in flight its hash tasks read the row tensor and the
 * cache *geometry* (set count) only — never cache tags or data — so a
 * job for the next channel may hash while the previous channel's
 * owner computes still run (the cross-channel overlap). The job owns
 * the pass it is filling: hashing writes the packed words,
 * finishStreaming the outcomes, entry ids and mix. The row tensor must
 * stay alive and unmodified until finishStreaming returns (or the job
 * is destroyed, which joins the outstanding hash tasks).
 */
class DetectionHashJob
{
  public:
    /** Joins any outstanding hash tasks. */
    ~DetectionHashJob();

    /** Signature length the job hashes at. */
    int signatureBits() const { return bits_; }

    /** Vector dimension of the rows being hashed. */
    int64_t vectorDim() const { return rows_.dim(1); }

    /** Number of rows being hashed. */
    int64_t rowCount() const { return n_; }

    DetectionHashJob(const DetectionHashJob &) = delete;
    DetectionHashJob &operator=(const DetectionHashJob &) = delete;

  private:
    friend class DetectionPipeline;

    DetectionHashJob(const Tensor &rows, const RPQEngine &rpq,
                     const ShardedMCache &cache, int bits,
                     int64_t block_rows, RowFiller fill);

    void projectBlock(int64_t b);

    /**
     * Claim the next unhashed block, hash it and publish every block
     * the frontier can now pass; false when no block is left to
     * claim. Hash tasks and the probing thread both call this.
     */
    bool hashNext();

    const Tensor &rows_;
    RowFiller fill_; ///< fused extraction; empty = rows pre-filled
    const RPQEngine &rpq_;
    const ShardedMCache &cache_; // geometry reads only while hashing
    int bits_;
    int64_t blockRows_;
    int64_t n_;
    int64_t blocks_;
    SignatureRecord::Pass pass_; ///< the result being filled
    std::vector<int> setOf_;
    // Sequencer state (pooled jobs): hashers finish in any order; the
    // frontier walk pushes them into the hand-off ascending.
    SpscQueue<int64_t> handoff_;
    std::mutex seqMutex_;
    std::vector<char> hashed_;
    int64_t frontier_ = 0;
    std::atomic<int64_t> nextBlock_{0};
    std::function<void()> hashOne_;     // self-replenishing hash task
    std::unique_ptr<TaskGroup> hashers_; // null: hash inline at finish
};

/** Streaming, optionally multi-threaded similarity detection pass. */
class DetectionPipeline
{
  public:
    /**
     * @param rpq   signature engine for this vector dimension
     * @param cache sharded MCACHE (cleared at the start of each pass)
     * @param bits  signature length
     * @param cfg   block size / shard / thread knobs
     * @param pool  worker pool for threads > 1; nullptr runs inline
     */
    DetectionPipeline(const RPQEngine &rpq, ShardedMCache &cache, int bits,
                      const PipelineConfig &cfg, ThreadPool *pool = nullptr);

    /**
     * Start stage 1 (hashing) of a streaming pass without touching
     * any MCACHE state: with a pool, self-replenishing hash tasks
     * begin immediately; without one, hashing is deferred into
     * finishStreaming. The returned job must be passed to
     * finishStreaming exactly once; `rows` must outlive it. Safe to
     * call while owner computes of a *previous* pass still run — this
     * is the cross-channel overlap: channel c+1 extracts and hashes
     * while channel c's owner computes drain. With a RowFiller the
     * hash tasks also *extract* their block right before projecting
     * it, which both fuses the two walks and moves extraction off the
     * driving thread.
     */
    std::unique_ptr<DetectionHashJob> beginHash(const Tensor &rows,
                                                RowFiller fill = {}) const;

    /**
     * Second half of a streaming pass: clears the cache (the new
     * vector population arrived, §III-B3), probes the hashed blocks
     * in ascending order on the calling thread, and delivers each to
     * `on_block` (which may be empty). Returns the filled pass: its
     * outcomes, entry ids, words and mix are SimilarityDetector::
     * detect's, row for row. Consumes the job.
     *
     * Ordering contract: blocks are delivered in ascending block
     * order (0, 1, 2, ...), each covering rows
     * [index * blockRows, min(n, (index + 1) * blockRows)), and the
     * MCACHE probe of a block happens-before its delivery.
     *
     * Threading contract: `on_block` runs on the calling thread. Only
     * stage 1 (hashing) is fanned out to the pool, and the calling
     * thread hashes unclaimed blocks while its next block is not
     * ready; without a pool the whole pass runs inline, with delivery
     * after each block. The
     * consumer may submit work to the same pool, but must not block
     * on that work from inside the callback.
     */
    SignatureRecord::Pass finishStreaming(DetectionHashJob &job,
                                          const BlockConsumer &on_block) const;

  private:
    const RPQEngine &rpq_;
    ShardedMCache &cache_;
    int bits_;
    PipelineConfig cfg_;
    ThreadPool *pool_;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_DETECTION_PIPELINE_HPP
