#include "pipeline/detection_frontend.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/sampling.hpp"

namespace mercury {

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
    return detectStream(rows, bits, {});
}

SignatureRecord::Pass
DetectionFrontend::detectStream(const Tensor &rows, int bits,
                                const BlockConsumer &on_block)
{
    std::unique_ptr<DetectionHashJob> job = beginHashStream(rows, bits);
    return finishStream(*job, on_block);
}

std::unique_ptr<DetectionHashJob>
DetectionFrontend::beginHashStream(const Tensor &rows, int bits,
                                   RowFiller fill)
{
    if (rows.rank() != 2)
        panic("detect expects a (n, d) matrix, got ", rows.shapeStr());
    ThreadPool *pool = poolFor();
    DetectionPipeline pipeline(rpqFor(rows.dim(1)), *cache_, bits,
                               pipe_.resolvedFor(rows.dim(0)), owners_,
                               pool);
    return pipeline.beginHash(rows, std::move(fill));
}

SignatureRecord::Pass
DetectionFrontend::finishStream(DetectionHashJob &job,
                                const BlockConsumer &on_block)
{
    // Probes run on this thread only, and the engines join their
    // chains before re-entering, so no other thread touches the cache
    // while this job's hash half may still be in flight: hashing reads
    // only the cache geometry.
    DetectionPipeline pipeline(rpqFor(job.vectorDim()), *cache_,
                               job.signatureBits(),
                               pipe_.resolvedFor(job.rowCount()), owners_,
                               poolFor());
    return pipeline.finishStreaming(job, on_block);
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
                                return detect(r, bits).mix;
                            });
}

} // namespace mercury
