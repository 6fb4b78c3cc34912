#include "pipeline/detection_frontend.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <functional>
#include <mutex>
#include <utility>

#include "util/executors.hpp"
#include "util/logging.hpp"
#include "util/spsc_queue.hpp"

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

/**
 * A pooled pass's hand-off: hashers finish blocks in any order, and the
 * frontier walk pushes them into the queue ascending. Built for each
 * pass a pool hashes; the serial path never builds one.
 */
struct DetectionHashJob::Sequencer
{
    Sequencer(ThreadPool *pool, int64_t blocks)
        : hashed(static_cast<size_t>(blocks), 0), hashers(pool)
    {
    }

    SpscQueue<int64_t> handoff;
    std::mutex mutex;
    std::vector<char> hashed;
    int64_t frontier = 0;
    std::atomic<int64_t> next{0};
    std::function<void()> hashOne; // self-replenishing hash task
    TaskGroup hashers;             // last: joins before the rest goes
};

void
DetectionHashJob::start(const Tensor *rows, const ConvFrame *geometry,
                        const float *frame, int64_t n, const RPQEngine &rpq,
                        const MCache &cache, int bits, int64_t block_rows,
                        ThreadPool *pool, SignatureRecord::Pass &&storage)
{
    if (cache_)
        panic("hash job begun again before its pass finished");
    // Rows, entry ids and owners are stored as int32 per row.
    if (n > INT32_MAX)
        panic("detection pass of ", n, " rows exceeds ", INT32_MAX);
    rows_ = rows;
    geometry_ = geometry;
    frame_ = frame;
    rpq_ = &rpq;
    cache_ = &cache;
    bits_ = bits;
    blockRows_ = block_rows;
    n_ = n;
    // (n + block_rows - 1) / block_rows would overflow for block sizes
    // near INT64_MAX.
    blocks_ = n == 0 ? 0 : (n - 1) / block_rows + 1;
    // Every row's words, outcome, entry id and owner are written before
    // the pass is returned, so recycled storage needs no clearing.
    pass_ = std::move(storage);
    pass_.rows = n;
    pass_.bits = bits;
    pass_.sigWordsPerRow = Signature::wordsFor(bits);
    pass_.sigWords.resize(static_cast<size_t>(n) *
                          static_cast<size_t>(pass_.sigWordsPerRow));
    pass_.entryIds.resize(static_cast<size_t>(n));
    pass_.outcomes.resize(static_cast<size_t>(n));
    pass_.owners.resize(static_cast<size_t>(n));
    if (n == 0 || !pool || pool->workers() <= 0)
        return; // hash inline when finishStream drives the pass

    // Hashing fans out to the pool in any order; the sequencer pushes
    // finished blocks into the hand-off queue in ascending block
    // order, and finishStream probes them as they arrive.
    //
    // Hash tasks are self-replenishing (each one grabs the next
    // unhashed block and resubmits) rather than enqueued all
    // up-front: only ~workers are in flight, so other work on the pool
    // is not queued behind a whole pass of hashing. Under the
    // work-stealing pool the resubmit lands in the hashing worker's
    // own deque (LIFO — it just touched the source, so the next block
    // is cache-warm for it), and idle workers steal from the cold end.
    seq_ = std::make_unique<Sequencer>(pool, blocks_);
    seq_->hashOne = [this] {
        if (hashNext())
            seq_->hashers.run(seq_->hashOne); // chain the next block
    };
    // Seed the chain as one batch: one lock and one wakeup for the
    // whole dependent group instead of a notify per seed.
    seq_->hashers.runBatch(
        std::min<int64_t>(blocks_, static_cast<int64_t>(pool->workers()) + 1),
        seq_->hashOne);
}

DetectionHashJob::DetectionHashJob() = default;

DetectionHashJob::~DetectionHashJob()
{
    if (seq_)
        seq_->hashers.wait();
}

void
DetectionHashJob::projectBlock(int64_t b)
{
    // Stage 1: hash one block into the pass's words, and each row's set
    // index into its entry-id slot (the probe reads it there before
    // writing the entry id). Safe on any thread and concurrently with
    // owner computes of a previous pass — it reads only the source and
    // the cache geometry.
    const int64_t r0 = b * blockRows_;
    const int64_t r1 = std::min(n_, r0 + blockRows_);
    uint64_t *words = pass_.sigWords.data() +
                      static_cast<size_t>(r0 * pass_.sigWordsPerRow);
    if (rows_)
        rpq_->signatureWords(*rows_, r0, r1, bits_, words);
    else
        rpq_->signatureWords(*geometry_, frame_, r0, r1, bits_, words);
    for (int64_t i = r0; i < r1; ++i)
        pass_.entryIds[static_cast<size_t>(i)] =
            cache_->setIndexOf(bits_, pass_.wordsOf(i));
}

bool
DetectionHashJob::hashNext()
{
    const int64_t b = seq_->next.fetch_add(1, std::memory_order_relaxed);
    if (b >= blocks_)
        return false;
    projectBlock(b);
    std::lock_guard<std::mutex> lock(seq_->mutex);
    seq_->hashed[static_cast<size_t>(b)] = 1;
    while (seq_->frontier < blocks_ &&
           seq_->hashed[static_cast<size_t>(seq_->frontier)])
        seq_->handoff.push(seq_->frontier++);
    return true;
}

void
DetectionHashJob::awaitHashed(int64_t b)
{
    if (!seq_) {
        projectBlock(b);
        return;
    }
    int64_t got = -1;
    // The probing thread is one more hasher: while its next block is
    // not ready, it hashes an unclaimed one instead of waiting.
    while (!seq_->handoff.tryPop(got) && hashNext()) {
    }
    // Exactly `blocks` pushes occur, ascending, and nobody closes the
    // queue — defensive, loud, never expected to fire.
    if (got < 0 && !seq_->handoff.pop(got))
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
    DetectionHashJob job;
    beginHashStream(job, rows, bits);
    return finishStream(job);
}

void
DetectionFrontend::beginHashStream(DetectionHashJob &job, const Tensor &rows,
                                   int bits, SignatureRecord::Pass storage)
{
    if (rows.rank() != 2)
        panic("detect expects a (n, d) matrix, got ", rows.shapeStr());
    beginJob(job, &rows, nullptr, nullptr, rows.dim(0), rows.dim(1), bits,
             std::move(storage));
}

void
DetectionFrontend::beginHashStream(DetectionHashJob &job,
                                   const ConvFrame &geometry,
                                   const float *frame, int bits,
                                   SignatureRecord::Pass storage)
{
    beginJob(job, nullptr, &geometry, frame,
             geometry.outH() * geometry.outW(),
             static_cast<int64_t>(geometry.channelTaps().size()), bits,
             std::move(storage));
}

void
DetectionFrontend::beginJob(DetectionHashJob &job, const Tensor *rows,
                            const ConvFrame *geometry, const float *frame,
                            int64_t n, int64_t dim, int bits,
                            SignatureRecord::Pass &&storage)
{
    if (bits <= 0 || bits > maxBits_)
        panic("signature bits ", bits, " outside engine range 1..",
              maxBits_);
    const int64_t block_rows = pipe_.resolvedFor(n).blockRows;
    if (block_rows <= 0)
        panic("pipeline block size must be positive, got ", block_rows);
    job.start(rows, geometry, frame, n, rpqFor(dim), *cache_, bits,
              block_rows, poolFor(), std::move(storage));
}

SignatureRecord::Pass
DetectionFrontend::finishStream(DetectionHashJob &job)
{
    // Probes run on this thread only, and the engines finish every
    // pass before beginning the next one's probe, so no other thread
    // touches the cache while a job's hash half may still be in
    // flight: hashing reads only the cache geometry.
    if (!job.cache_)
        panic("finishStream of a hash job that was not begun");
    if (job.cache_ != cache_)
        panic("hash job finished on a different cache than it began on");
    if (pipe_.persistent)
        cache_->resetInsertBacklog(); // keep the §V drain cost per-pass
    else
        cache_->clear();

    // Stage 2: probe each hashed block in stream order (so every MCACHE
    // set sees the scalar detector's order); the probe writes each
    // row's outcome, entry id and owner into the pass and counts the
    // mix and the forwarded rows.
    SignatureRecord::Pass &pass = job.pass_;
    McacheProbe stream;
    stream.bits = pass.bits;
    stream.wordsPerRow = pass.sigWordsPerRow;
    stream.words = pass.sigWords.data();
    stream.sets = pass.entryIds.data(); // the hash job's set indices
    stream.outcomes = pass.outcomes.data();
    stream.entryIds = pass.entryIds.data();
    stream.owners = pass.owners.data();
    for (int64_t b = 0; b < job.blocks_; ++b) {
        job.awaitHashed(b);
        const int64_t r0 = b * job.blockRows_;
        const int64_t r1 = std::min(job.n_, r0 + job.blockRows_);
        cache_->probeBlock(stream, static_cast<int32_t>(r0),
                           static_cast<int32_t>(r1), &owners_);
    }
    if (job.seq_) {
        job.seq_->hashers.wait();
        job.seq_.reset();
    }
    job.cache_ = nullptr;

    owners_.nextPass();
    pass.forwarded = stream.forwarded;
    pass.mix.vectors = job.n_;
    pass.mix.hit = stream.mix.hits;
    pass.mix.mau = stream.mix.mau;
    pass.mix.mnu = stream.mix.mnu;
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
