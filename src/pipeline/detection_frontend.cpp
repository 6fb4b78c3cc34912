#include "pipeline/detection_frontend.hpp"

#include <algorithm>
#include <climits>
#include <utility>

#include "util/logging.hpp"

namespace mercury {

PipelineConfig
PipelineConfig::fromConfig(const AcceleratorConfig &cfg)
{
    PipelineConfig pipe;
    pipe.blockRows = cfg.pipelineBlockRows;
    pipe.threads = cfg.pipelineThreads;
    pipe.persistent = cfg.persistentCache;
    return pipe;
}

PipelineConfig
PipelineConfig::resolvedFor(int64_t rows) const
{
    PipelineConfig resolved = *this;
    if (blockRows == 0)
        resolved.blockRows = tunedPipelineFor(std::max<int64_t>(rows, 1));
    return resolved;
}

DetectionHashJob::DetectionHashJob(const Tensor *rows,
                                   const ConvFrame *geometry,
                                   const float *frame, int64_t n,
                                   const RPQEngine &rpq, const MCache &cache,
                                   int bits, int64_t block_rows,
                                   ThreadPool *pool)
    : rows_(rows), geometry_(geometry), frame_(frame), rpq_(rpq),
      cache_(cache), bits_(bits), blockRows_(block_rows), n_(n),
      blocks_((n_ + block_rows - 1) / block_rows),
      setOf_(static_cast<size_t>(n_)),
      hashed_(static_cast<size_t>(blocks_), 0)
{
    // Rows, entry ids and owners are stored as int32 per row.
    if (n_ > INT32_MAX)
        panic("detection pass of ", n_, " rows exceeds ", INT32_MAX);
    pass_.rows = n_;
    pass_.bits = bits;
    pass_.sigWordsPerRow = Signature::wordsFor(bits);
    pass_.sigWords.resize(static_cast<size_t>(n_) *
                          static_cast<size_t>(pass_.sigWordsPerRow));
    pass_.entryIds.resize(static_cast<size_t>(n_));
    pass_.outcomes.resize(static_cast<size_t>(n_));
    pass_.owners.resize(static_cast<size_t>(n_));
    if (n_ == 0 || !pool || pool->workers() <= 0)
        return; // hash inline when finishStream drives the pass

    // Hashing fans out to the pool in any order; a sequencer pushes
    // finished blocks into the hand-off queue in ascending block
    // order, and finishStream probes them as they arrive.
    //
    // Hash tasks are self-replenishing (each one grabs the next
    // unhashed block and resubmits) rather than enqueued all
    // up-front: only ~workers are in flight, so other work on the pool
    // is not queued behind a whole pass of hashing. Under the
    // work-stealing pool the resubmit lands in the hashing worker's
    // own deque (LIFO — it just touched the row tensor, so the next
    // block is cache-warm for it), and idle workers steal from the
    // cold end.
    hashers_ = std::make_unique<TaskGroup>(pool);
    hashOne_ = [this] {
        if (hashNext())
            hashers_->run(hashOne_); // chain the next block
    };
    // Seed the chain as one batch: one lock and one wakeup for the
    // whole dependent group instead of a notify per seed.
    hashers_->runBatch(
        std::min<int64_t>(blocks_, static_cast<int64_t>(pool->workers()) + 1),
        hashOne_);
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
    // computes of a previous pass — it reads only the source and the
    // cache geometry.
    const int64_t r0 = b * blockRows_;
    const int64_t r1 = std::min(n_, r0 + blockRows_);
    uint64_t *words = pass_.sigWords.data() +
                      static_cast<size_t>(r0 * pass_.sigWordsPerRow);
    if (rows_)
        rpq_.signatureWords(*rows_, r0, r1, bits_, words);
    else
        rpq_.signatureWords(*geometry_, frame_, r0, r1, bits_, words);
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

void
DetectionHashJob::awaitHashed(int64_t b)
{
    if (!hashers_) {
        projectBlock(b);
        return;
    }
    int64_t got = -1;
    // The probing thread is one more hasher: while its next block is
    // not ready, it hashes an unclaimed one instead of waiting.
    while (!handoff_.tryPop(got) && hashNext()) {
    }
    // Exactly `blocks` pushes occur, ascending, and nobody closes the
    // queue — defensive, loud, never expected to fire.
    if (got < 0 && !handoff_.pop(got))
        panic("detection hand-off queue closed early");
    if (got != b)
        panic("detection hand-off delivered block ", got, ", expected ", b);
}

DetectionFrontend::DetectionFrontend(int sets, int ways, int data_versions,
                                     int max_bits, uint64_t seed,
                                     PipelineConfig pipe)
    : ownedCache_(std::make_unique<MCache>(sets, ways, data_versions)),
      cache_(ownedCache_.get()), owners_(cache_->entries()), pipe_(pipe),
      maxBits_(max_bits), seed_(seed)
{
    if (max_bits <= 0)
        panic("DetectionFrontend needs positive max signature bits");
}

DetectionFrontend::DetectionFrontend(MCache &cache, int max_bits,
                                     uint64_t seed, PipelineConfig pipe)
    : cache_(&cache), owners_(cache.entries()), pipe_(pipe),
      maxBits_(max_bits), seed_(seed)
{
    if (max_bits <= 0)
        panic("DetectionFrontend needs positive max signature bits");
}

DetectionFrontend::DetectionFrontend(const AcceleratorConfig &cfg,
                                     uint64_t seed)
    : DetectionFrontend(cfg.mcacheSets, cfg.mcacheWays,
                        cfg.mcacheDataVersions, cfg.maxSignatureBits, seed,
                        PipelineConfig::fromConfig(cfg))
{
}

RPQEngine &
DetectionFrontend::rpqFor(int64_t dim)
{
    auto it = rpqByDim_.find(dim);
    if (it == rpqByDim_.end()) {
        it = rpqByDim_
                 .emplace(dim, std::make_unique<RPQEngine>(dim, maxBits_,
                                                           seed_))
                 .first;
    }
    return *it->second;
}

ThreadPool *
DetectionFrontend::poolFor()
{
    if (sharedPool_)
        return sharedPool_->workers() > 0 ? sharedPool_ : nullptr;
    return ThreadPool::forKnob(pipe_.threads, pool_);
}

SignatureRecord::Pass
DetectionFrontend::detect(const Tensor &rows, int bits)
{
    return finishStream(*beginHashStream(rows, bits));
}

std::unique_ptr<DetectionHashJob>
DetectionFrontend::beginHashStream(const Tensor &rows, int bits)
{
    if (rows.rank() != 2)
        panic("detect expects a (n, d) matrix, got ", rows.shapeStr());
    return beginJob(&rows, nullptr, nullptr, rows.dim(0), rows.dim(1), bits);
}

std::unique_ptr<DetectionHashJob>
DetectionFrontend::beginHashStream(const ConvFrame &geometry,
                                   const float *frame, int bits)
{
    return beginJob(nullptr, &geometry, frame,
                    geometry.outH() * geometry.outW(),
                    static_cast<int64_t>(geometry.channelTaps().size()),
                    bits);
}

std::unique_ptr<DetectionHashJob>
DetectionFrontend::beginJob(const Tensor *rows, const ConvFrame *geometry,
                            const float *frame, int64_t n, int64_t dim,
                            int bits)
{
    if (bits <= 0 || bits > maxBits_)
        panic("signature bits ", bits, " outside engine range 1..",
              maxBits_);
    const int64_t block_rows = pipe_.resolvedFor(n).blockRows;
    if (block_rows <= 0)
        panic("pipeline block size must be positive, got ", block_rows);
    return std::unique_ptr<DetectionHashJob>(
        new DetectionHashJob(rows, geometry, frame, n, rpqFor(dim), *cache_,
                             bits, block_rows, poolFor()));
}

SignatureRecord::Pass
DetectionFrontend::finishStream(DetectionHashJob &job)
{
    // Probes run on this thread only, and the engines finish every
    // pass before beginning the next one's probe, so no other thread
    // touches the cache while a job's hash half may still be in
    // flight: hashing reads only the cache geometry.
    if (&job.cache_ != cache_)
        panic("hash job finished on a different cache than it began on");
    if (pipe_.persistent)
        cache_->resetInsertBacklog(); // keep the §V drain cost per-pass
    else
        cache_->clear();

    // Stage 2: probe each hashed block in stream order (so every MCACHE
    // set sees the scalar detector's order), write each row's outcome,
    // entry id and owner into the pass, and count the mix and the
    // forwarded rows.
    SignatureRecord::Pass &pass = job.pass_;
    int64_t counts[3] = {0, 0, 0}; // indexed by McacheOutcome
    int64_t forwarded = 0;
    for (int64_t b = 0; b < job.blocks_; ++b) {
        job.awaitHashed(b);
        const int32_t r0 = static_cast<int32_t>(b * job.blockRows_);
        const int32_t r1 =
            static_cast<int32_t>(std::min(job.n_, r0 + job.blockRows_));
        for (int32_t i = r0; i < r1; ++i) {
            // Pull row i+1's set into cache while row i's tag
            // compares run; the probe stream hops sets pseudo-
            // randomly, so the hardware prefetcher cannot help here.
            if (i + 1 < r1)
                cache_->prefetchSet(job.setOf_[static_cast<size_t>(i + 1)]);
            const McacheResult r = cache_->lookupOrInsertInSet(
                job.setOf_[static_cast<size_t>(i)], pass.bits,
                pass.wordsOf(i));
            pass.outcomes[static_cast<size_t>(i)] =
                static_cast<uint8_t>(r.outcome);
            pass.entryIds[static_cast<size_t>(i)] =
                static_cast<int32_t>(r.entryId);
            const int32_t o = owners_.ownerOf(i, r.outcome, r.entryId);
            pass.owners[static_cast<size_t>(i)] = o;
            forwarded += o != i;
            ++counts[static_cast<int>(r.outcome)];
        }
    }
    if (job.hashers_)
        job.hashers_->wait();

    owners_.nextPass();
    pass.forwarded = forwarded;
    pass.mix.vectors = job.n_;
    pass.mix.hit = counts[static_cast<int>(McacheOutcome::Hit)];
    pass.mix.mau = counts[static_cast<int>(McacheOutcome::Mau)];
    pass.mix.mnu = counts[static_cast<int>(McacheOutcome::Mnu)];
    return std::move(pass);
}

FrontendHandle::FrontendHandle(MCache &cache, int sig_bits, uint64_t seed,
                               const PipelineConfig &pipe,
                               const char *engine)
    : owned_(std::make_unique<DetectionFrontend>(
          cache, std::max(sig_bits, 1), seed, pipe)),
      frontend_(*owned_), sigBits_(sig_bits)
{
    if (sig_bits <= 0)
        panic(engine, " needs positive signature bits");
}

FrontendHandle::FrontendHandle(DetectionFrontend &frontend, int sig_bits,
                               const char *engine)
    : frontend_(frontend), sigBits_(sig_bits)
{
    if (sig_bits <= 0)
        panic(engine, " needs positive signature bits");
    if (sig_bits > frontend.maxBits())
        panic(engine, " signature bits ", sig_bits,
              " exceed frontend provisioning ", frontend.maxBits());
}

} // namespace mercury
