#include "pipeline/detection_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/spsc_queue.hpp"

namespace mercury {

PipelineConfig
PipelineConfig::fromConfig(const AcceleratorConfig &cfg)
{
    PipelineConfig pipe;
    pipe.blockRows = cfg.pipelineBlockRows;
    pipe.shards = cfg.pipelineShards;
    pipe.threads = cfg.pipelineThreads;
    pipe.overlap = cfg.overlapDetection;
    pipe.persistent = cfg.persistentCache;
    return pipe;
}

int
PipelineConfig::resolvedShards() const
{
    if (shards != 0)
        return shards;
    // The band depends only on the probe parallelism available, not
    // the pass size (tunedPipelineFor keeps shards constant across
    // row bands).
    return tunedPipelineFor(1, ThreadPool::resolveThreads(threads))
        .shards;
}

OverlapMode
PipelineConfig::resolvedOverlapFor(int64_t rows) const
{
    if (overlap != OverlapMode::Auto)
        return overlap;
    // Overlap needs real parallelism to pay, so the host's usable
    // concurrency (resolveThreads(0) = hardware, clamped) caps the
    // count the policy sees: requesting 8 threads on a 1-core
    // container still resolves serial. Explicit On is untouched —
    // the cap is part of the Auto policy only.
    const int t = std::min(ThreadPool::resolveThreads(threads),
                           ThreadPool::resolveThreads(0));
    return (t >= 3 && rows >= kAutoOverlapMinRows) ? OverlapMode::On
                                                   : OverlapMode::Off;
}

PipelineConfig
PipelineConfig::resolvedFor(int64_t rows) const
{
    PipelineConfig resolved = *this;
    resolved.overlap = resolvedOverlapFor(rows);
    if (blockRows == 0) {
        resolved.blockRows =
            tunedPipelineFor(std::max<int64_t>(rows, 1),
                             ThreadPool::resolveThreads(threads))
                .blockRows;
    }
    return resolved;
}

DetectionPipeline::DetectionPipeline(const RPQEngine &rpq,
                                     ShardedMCache &cache, int bits,
                                     const PipelineConfig &cfg,
                                     ThreadPool *pool)
    : rpq_(rpq), cache_(cache), bits_(bits), cfg_(cfg), pool_(pool)
{
    if (bits <= 0 || bits > rpq.maxBits())
        panic("signature bits ", bits, " outside engine range 1..",
              rpq.maxBits());
    if (cfg_.blockRows <= 0)
        panic("pipeline block size must be positive, got ",
              cfg_.blockRows);
}

DetectionHashJob::DetectionHashJob(const Tensor &rows, const RPQEngine &rpq,
                                   const ShardedMCache &cache, int bits,
                                   int64_t block_rows, RowFiller fill)
    : rows_(rows), fill_(std::move(fill)), rpq_(rpq), cache_(cache),
      bits_(bits), blockRows_(block_rows), n_(rows.dim(0)),
      blocks_((n_ + block_rows - 1) / block_rows),
      setOf_(static_cast<size_t>(n_)),
      hashed_(static_cast<size_t>(blocks_), 0)
{
    pass_.rows = n_;
    pass_.bits = bits;
    pass_.sigWordsPerRow = Signature::wordsFor(bits);
    pass_.sigWords.resize(static_cast<size_t>(n_) *
                          static_cast<size_t>(pass_.sigWordsPerRow));
    pass_.entryIds.resize(static_cast<size_t>(n_));
    pass_.outcomes.resize(static_cast<size_t>(n_));
}

DetectionHashJob::~DetectionHashJob()
{
    if (hashers_)
        hashers_->wait();
}

void
DetectionHashJob::projectBlock(int64_t b)
{
    // Stage 1: hash one block into the pass's words, precompute its
    // set indices. Safe on any thread and concurrently with owner
    // computes of a previous pass — it reads only the row tensor and
    // the cache geometry. With a filler, the block's rows are
    // extracted here first (the single-touch fused walk: fill,
    // project, sign-pack while hot).
    const int64_t r0 = b * blockRows_;
    const int64_t r1 = std::min(n_, r0 + blockRows_);
    if (fill_)
        fill_(r0, r1);
    rpq_.signatureWords(rows_, r0, r1, bits_,
                        pass_.sigWords.data() +
                            static_cast<size_t>(r0 * pass_.sigWordsPerRow));
    for (int64_t i = r0; i < r1; ++i)
        setOf_[static_cast<size_t>(i)] =
            cache_.setIndexOf(bits_, pass_.wordsOf(i));
}

bool
DetectionHashJob::hashNext()
{
    const int64_t b = nextBlock_.fetch_add(1, std::memory_order_relaxed);
    if (b >= blocks_)
        return false;
    projectBlock(b);
    std::lock_guard<std::mutex> lock(seqMutex_);
    hashed_[static_cast<size_t>(b)] = 1;
    while (frontier_ < blocks_ && hashed_[static_cast<size_t>(frontier_)])
        handoff_.push(frontier_++);
    return true;
}

std::unique_ptr<DetectionHashJob>
DetectionPipeline::beginHash(const Tensor &rows, RowFiller fill) const
{
    if (rows.rank() != 2 || rows.dim(1) != rpq_.vectorDim())
        panic("detect expects (n, ", rpq_.vectorDim(), ") got ",
              rows.shapeStr());
    std::unique_ptr<DetectionHashJob> job(
        new DetectionHashJob(rows, rpq_, cache_, bits_, cfg_.blockRows,
                             std::move(fill)));
    if (job->n_ == 0 || !pool_ || pool_->workers() <= 0)
        return job; // hash inline when finishStreaming drives the pass

    // Hashing fans out to the pool in any order; a sequencer pushes
    // finished blocks into the hand-off queue in ascending block
    // order, and finishStreaming probes + delivers as they arrive —
    // overlapping stage 1 of later blocks with the consumer's work on
    // earlier ones (Fig. 8).
    //
    // Hash tasks are self-replenishing (each one grabs the next
    // unhashed block and resubmits) rather than enqueued all
    // up-front: with only ~workers in flight, hash and compute tasks
    // interleave instead of the hashing phase monopolizing the pool.
    // Under the work-stealing pool the resubmit lands in the hashing
    // worker's own deque (LIFO — it just touched the row tensor, so
    // the next block is cache-warm for it), idle workers steal from
    // the cold end, and the consumer's owner computes live in other
    // deques — the two phases share the machine without convoying on
    // a global queue.
    DetectionHashJob *j = job.get();
    j->hashers_ = std::make_unique<TaskGroup>(pool_);
    j->hashOne_ = [j] {
        if (j->hashNext())
            j->hashers_->run(j->hashOne_); // chain the next block
    };
    const int64_t seeds = std::min<int64_t>(
        j->blocks_, static_cast<int64_t>(pool_->workers()) + 1);
    // Seed the self-replenishing chain as one batch: one lock and one
    // wakeup for the whole dependent group instead of a notify per
    // seed (ThreadPool::submitBatch).
    j->hashers_->runBatch(seeds, j->hashOne_);
    return job;
}

SignatureRecord::Pass
DetectionPipeline::finishStreaming(DetectionHashJob &job,
                                   const BlockConsumer &on_block) const
{
    if (&job.cache_ != &cache_)
        panic("hash job finished on a different cache than it began on");
    if (cfg_.persistent)
        cache_.resetInsertBacklog(); // keep the §V drain cost per-pass
    else
        cache_.clear();
    const int64_t n = job.n_;
    SignatureRecord::Pass &pass = job.pass_;
    if (n == 0)
        return std::move(pass);

    // Stage 2 + hand-off: probe one hashed block in global stream
    // order (caller thread only, so every MCACHE set sees the
    // monolithic cache's order), write each row's outcome and entry id
    // into the pass, count the mix, and deliver the block.
    int64_t counts[3] = {0, 0, 0}; // indexed by McacheOutcome
    const auto probe_and_deliver = [&](int64_t b) {
        const int64_t r0 = b * job.blockRows_;
        const int64_t r1 = std::min(n, r0 + job.blockRows_);
        for (int64_t i = r0; i < r1; ++i) {
            // Pull row i+1's set into cache while row i's tag
            // compares run; the probe stream hops sets pseudo-
            // randomly, so the hardware prefetcher cannot help here.
            if (i + 1 < r1)
                cache_.prefetchSet(
                    job.setOf_[static_cast<size_t>(i + 1)]);
            const McacheResult r = cache_.lookupOrInsertInSet(
                job.setOf_[static_cast<size_t>(i)], pass.bits,
                pass.wordsOf(i));
            pass.outcomes[static_cast<size_t>(i)] =
                static_cast<uint8_t>(r.outcome);
            pass.entryIds[static_cast<size_t>(i)] =
                static_cast<int32_t>(r.entryId);
            ++counts[static_cast<int>(r.outcome)];
        }
        if (on_block) {
            DetectionBlock blk;
            blk.index = b;
            blk.row0 = r0;
            blk.row1 = r1;
            blk.pass = &pass;
            on_block(blk);
        }
    };

    if (job.hashers_) {
        for (int64_t delivered = 0; delivered < job.blocks_; ++delivered) {
            int64_t b = -1;
            // The calling thread is one more hasher: while its next
            // block is not ready, it hashes an unclaimed one instead
            // of waiting.
            while (!job.handoff_.tryPop(b) && job.hashNext()) {
            }
            // Exactly `blocks` pushes occur and nobody closes the
            // queue, so pop() can only return false if the sequencer
            // logic breaks — defensive, loud, never expected to fire.
            if (b < 0 && !job.handoff_.pop(b))
                panic("detection hand-off queue closed early");
            probe_and_deliver(b);
        }
        job.hashers_->wait();
    } else {
        for (int64_t b = 0; b < job.blocks_; ++b) {
            job.projectBlock(b);
            probe_and_deliver(b);
        }
    }

    pass.mix.vectors = n;
    pass.mix.hit = counts[static_cast<int>(McacheOutcome::Hit)];
    pass.mix.mau = counts[static_cast<int>(McacheOutcome::Mau)];
    pass.mix.mnu = counts[static_cast<int>(McacheOutcome::Mnu)];
    return std::move(pass);
}

} // namespace mercury
