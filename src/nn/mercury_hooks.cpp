#include "nn/mercury_hooks.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace mercury {

MercuryContext::MercuryContext(int sig_bits, int sets, int ways,
                               int versions, uint64_t seed)
    : sigBits_(sig_bits), sets_(sets), ways_(ways), versions_(versions),
      seed_(seed)
{
    if (sig_bits <= 0)
        fatal("MercuryContext needs positive signature bits");
    if (sets <= 0 || ways <= 0 || versions <= 0)
        fatal("MercuryContext needs positive MCACHE sets/ways/versions, "
              "got ",
              sets, "/", ways, "/", versions);
}

void
MercuryContext::setSignatureBits(int bits)
{
    if (bits <= 0)
        panic("signature bits must stay positive, got ", bits);
    sigBits_ = bits;
}

void
MercuryContext::setPipeline(const PipelineConfig &pipe)
{
    pipeline_ = pipe;
    frontends_.clear();
    perLayer_.clear();
    shared_.reset();
    pool_.reset();
}

ShardedMCache &
MercuryContext::sharedCache()
{
    if (!shared_) {
        shared_ = std::make_unique<ShardedMCache>(
            sets_, ways_, versions_, pipeline_.resolvedShards());
    }
    return *shared_;
}

ShardedMCache &
MercuryContext::cacheForLayer(uint64_t layer_id)
{
    if (cacheProvider_)
        return cacheProvider_(layer_id);
    if (!pipeline_.persistent)
        return sharedCache();
    // Persistent mode: tags now survive across passes, so layers can
    // no longer time-share one cache (each hashes with its own
    // projection). Every layer gets a private cache carrying the
    // context's lifecycle state.
    auto it = perLayer_.find(layer_id);
    if (it == perLayer_.end()) {
        auto cache = std::make_unique<ShardedMCache>(
            sets_, ways_, versions_, pipeline_.resolvedShards());
        cache->setEpoch(epoch_);
        cache->setInsertTenant(tenant_);
        it = perLayer_.emplace(layer_id, std::move(cache)).first;
    }
    return *it->second;
}

void
MercuryContext::setLayerCacheProvider(LayerCacheProvider provider)
{
    cacheProvider_ = std::move(provider);
    frontends_.clear();
    perLayer_.clear();
}

void
MercuryContext::setTenant(int tenant)
{
    tenant_ = tenant;
    for (auto &kv : perLayer_)
        kv.second->setInsertTenant(tenant);
}

void
MercuryContext::setEpoch(uint64_t epoch)
{
    epoch_ = epoch;
    for (auto &kv : perLayer_)
        kv.second->setEpoch(epoch);
}

int64_t
MercuryContext::evictOlderThan(uint64_t min_epoch)
{
    int64_t evicted = 0;
    for (auto &kv : perLayer_)
        evicted += kv.second->evictOlderThan(min_epoch);
    return evicted;
}

void
MercuryContext::clearCaches()
{
    for (auto &kv : perLayer_)
        kv.second->clear();
    if (shared_)
        shared_->clear();
}

std::vector<uint64_t>
MercuryContext::persistentCacheIds() const
{
    std::vector<uint64_t> ids;
    ids.reserve(perLayer_.size());
    for (const auto &kv : perLayer_)
        ids.push_back(kv.first);
    return ids;
}

ShardedMCache &
MercuryContext::persistentCache(uint64_t layer_id)
{
    auto it = perLayer_.find(layer_id);
    if (it == perLayer_.end())
        panic("no persistent cache for layer ", layer_id,
              " (no pass has run through it yet)");
    return *it->second;
}

ThreadPool *
MercuryContext::sharedPool()
{
    return ThreadPool::forKnob(pipeline_.threads, pool_);
}

DetectionFrontend &
MercuryContext::frontendFor(uint64_t layer_id)
{
    auto it = frontends_.find(layer_id);
    if (it != frontends_.end() && it->second->maxBits() >= sigBits_)
        return *it->second;
    // Provision to the next 64-bit band so adaptive signature growth
    // rarely forces a rebuild; extra columns never change the bits
    // actually used.
    const int max_bits = std::max(64, (sigBits_ + 63) / 64 * 64);
    // One sharded cache with the context's organization shared by
    // every layer (not a view of cache_), so the shards knob actually
    // parallelizes the probe stage without an MCACHE allocation per
    // layer; identical results either way, as each detection pass
    // clears the cache. Persistent mode swaps in per-layer (or
    // provider-owned) caches instead — see cacheForLayer.
    auto frontend = std::make_unique<DetectionFrontend>(
        cacheForLayer(layer_id), max_bits, layerSeed(layer_id),
        pipeline_);
    frontend->setSharedPool(sharedPool());
    DetectionFrontend &ref = *frontend;
    frontends_[layer_id] = std::move(frontend);
    return ref;
}

uint64_t
MercuryContext::layerSeed(uint64_t layer_id) const
{
    // SplitMix-style spread so per-layer projections are independent.
    uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (layer_id + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    return z ^ (z >> 31);
}

namespace {

void
addStats(ReuseStats &into, const ReuseStats &stats)
{
    into.mix.vectors += stats.mix.vectors;
    into.mix.hit += stats.mix.hit;
    into.mix.mau += stats.mix.mau;
    into.mix.mnu += stats.mix.mnu;
    into.macsTotal += stats.macsTotal;
    into.macsSkipped += stats.macsSkipped;
    into.channelPasses += stats.channelPasses;
}

} // namespace

void
MercuryContext::accumulate(const ReuseStats &stats)
{
    addStats(totals_, stats);
}

void
MercuryContext::accumulateBackward(const ReuseStats &stats)
{
    addStats(backwardTotals_, stats);
}

void
MercuryContext::accumulateWeightGrad(const ReuseStats &stats)
{
    addStats(weightGradTotals_, stats);
}

void
MercuryContext::resetStats()
{
    totals_ = ReuseStats{};
    backwardTotals_ = ReuseStats{};
    weightGradTotals_ = ReuseStats{};
}

} // namespace mercury
