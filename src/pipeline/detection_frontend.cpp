#include "pipeline/detection_frontend.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/sampling.hpp"

namespace mercury {

DetectionFrontend::DetectionFrontend(int sets, int ways, int data_versions,
                                     int max_bits, uint64_t seed,
                                     PipelineConfig pipe)
    : ownedCache_(std::make_unique<ShardedMCache>(
          sets, ways, data_versions, pipe.resolvedShards())),
      cache_(ownedCache_.get()), pipe_(pipe), maxBits_(max_bits),
      seed_(seed)
{
    if (max_bits <= 0)
        panic("DetectionFrontend needs positive max signature bits");
}

DetectionFrontend::DetectionFrontend(MCache &cache, int max_bits,
                                     uint64_t seed, PipelineConfig pipe)
    : ownedCache_(std::make_unique<ShardedMCache>(cache)),
      cache_(ownedCache_.get()), pipe_(pipe), maxBits_(max_bits),
      seed_(seed)
{
    if (max_bits <= 0)
        panic("DetectionFrontend needs positive max signature bits");
}

DetectionFrontend::DetectionFrontend(ShardedMCache &cache, int max_bits,
                                     uint64_t seed, PipelineConfig pipe)
    : cache_(&cache), pipe_(pipe), maxBits_(max_bits), seed_(seed)
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

const PipelineConfig &
DetectionFrontend::resolvedPipeFor(int64_t rows)
{
    auto it = resolvedByRows_.find(rows);
    if (it == resolvedByRows_.end()) {
        ++knobResolutions_;
        it = resolvedByRows_.emplace(rows, pipe_.resolvedFor(rows)).first;
    }
    return it->second;
}

DetectionResult
DetectionFrontend::detect(const Tensor &rows, int bits,
                          SignatureRecord *capture, const RowFiller &fill)
{
    if (rows.rank() != 2)
        panic("detect expects a (n, d) matrix, got ", rows.shapeStr());
    ThreadPool *pool = poolFor();
    const PipelineConfig &rp = resolvedPipeFor(rows.dim(0));
    // Shard locks engage in overlapped mode (after Auto resolution
    // for this pass size), matching the streaming path below. The
    // batch pass itself is lock-free by construction even on a pool
    // (stage-1 blocks write disjoint ranges, stage 2 runs one prober
    // per shard). Quiescent here: one thread drives a frontend's
    // passes.
    cache_->setConcurrent(rp.overlap == OverlapMode::On && pool != nullptr);
    DetectionPipeline pipeline(rpqFor(rows.dim(1)), *cache_, bits, rp,
                               pool);
    DetectionResult det = pipeline.run(rows, fill);
    if (capture)
        capture->capturePass(det, bits, cache_->dataVersions(),
                             cache_->entries());
    return det;
}

DetectionResult
DetectionFrontend::detectStream(const Tensor &rows, int bits,
                                const BlockConsumer &on_block,
                                SignatureRecord *capture, RowFiller fill)
{
    std::unique_ptr<DetectionHashJob> job =
        beginHashStream(rows, bits, std::move(fill));
    return finishStream(*job, on_block, capture);
}

std::unique_ptr<DetectionHashJob>
DetectionFrontend::beginHashStream(const Tensor &rows, int bits,
                                   RowFiller fill)
{
    if (rows.rank() != 2)
        panic("detect expects a (n, d) matrix, got ", rows.shapeStr());
    ThreadPool *pool = poolFor();
    DetectionPipeline pipeline(rpqFor(rows.dim(1)), *cache_, bits,
                               resolvedPipeFor(rows.dim(0)), pool);
    return pipeline.beginHash(rows, std::move(fill));
}

DetectionResult
DetectionFrontend::finishStream(DetectionHashJob &job,
                                const BlockConsumer &on_block,
                                SignatureRecord *capture)
{
    ThreadPool *pool = poolFor();
    // Locks engage whenever a pool exists; they stay uncontended, as
    // streaming probes run on this thread in stream order. The
    // previous pass's filter tasks have drained by the time a new
    // finishStream runs (one thread drives passes; engines join their
    // chains before re-entering), so the cache is quiescent here even
    // though the *hash* half of this job may already be in flight —
    // hashing touches no cache state.
    cache_->setConcurrent(pool != nullptr);
    DetectionPipeline pipeline(rpqFor(job.vectorDim()), *cache_,
                               job.signatureBits(),
                               resolvedPipeFor(job.rowCount()), pool);
    DetectionResult det = pipeline.finishStreaming(job, on_block);
    if (capture)
        capture->capturePass(det, job.signatureBits(),
                             cache_->dataVersions(), cache_->entries());
    return det;
}

void
DetectionFrontend::replayStream(const SignatureRecord::Pass &pass,
                                const BlockConsumer &on_block,
                                bool with_signatures)
{
    // Replay never provisions an RPQ engine or touches the cache: the
    // recorded pass carries everything the consumer needs.
    DetectionPipeline::replayStreaming(
        pass, resolvedPipeFor(pass.rows).blockRows, on_block,
        with_signatures);
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

HitMix
DetectionFrontend::detectSampled(const Tensor &rows, int bits,
                                 int64_t max_sample)
{
    return sampledDetection(rows, max_sample,
                            [this, bits](const Tensor &r) {
                                return detect(r, bits).mix();
                            });
}

} // namespace mercury
