#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/runtime_planner.hpp"
#include "util/logging.hpp"

namespace mercury {

namespace {

ReuseStats
statsDelta(const ReuseStats &now, const ReuseStats &before)
{
    ReuseStats d;
    d.mix.vectors = now.mix.vectors - before.mix.vectors;
    d.mix.hit = now.mix.hit - before.mix.hit;
    d.mix.mau = now.mix.mau - before.mix.mau;
    d.mix.mnu = now.mix.mnu - before.mix.mnu;
    d.macsTotal = now.macsTotal - before.macsTotal;
    d.macsSkipped = now.macsSkipped - before.macsSkipped;
    d.channelPasses = now.channelPasses - before.channelPasses;
    return d;
}

} // namespace

// ---- Session ---------------------------------------------------------

struct SessionHandle::Session
{
    int tenant;
    MercuryServer *server;
    std::unique_ptr<Network> model;
    MercuryContext ctx;
    std::unique_ptr<SerialExecutor> chain;
    std::atomic<int> queued{0};
    std::atomic<int64_t> lastJobUs{1000}; ///< retry-after seed: 1 ms

    Session(int tenant_id, MercuryServer *srv, const ServeConfig &cfg)
        : tenant(tenant_id), server(srv),
          ctx(cfg.signatureBits, cfg.sets, cfg.ways, cfg.dataVersions,
              cfg.seed)
    {
    }
};

// ---- JobTicket -------------------------------------------------------

const JobResult &
JobTicket::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return ready_; });
    return result_;
}

bool
JobTicket::ready() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ready_;
}

// ---- SessionHandle ---------------------------------------------------

int
SessionHandle::tenant() const
{
    if (!session_)
        panic("tenant() on an invalid session handle");
    return session_->tenant;
}

SubmitStatus
SessionHandle::submit(JobRequest req)
{
    if (!session_)
        panic("submit() on an invalid session handle");
    Session &s = *session_;
    const int queued = s.queued.load(std::memory_order_relaxed);
    if (queued >= server_->cfg_.maxQueuedPerSession) {
        server_->jobsRejected_.fetch_add(1, std::memory_order_relaxed);
        const double job_ms = std::max(
            0.1, static_cast<double>(s.lastJobUs.load(
                     std::memory_order_relaxed)) /
                     1000.0);
        return {false, job_ms * queued, nullptr};
    }
    s.queued.fetch_add(1, std::memory_order_relaxed);

    auto ticket = std::make_shared<JobTicket>();
    auto request = std::make_shared<JobRequest>(std::move(req));
    MercuryServer *server = server_;
    std::shared_ptr<Session> session = session_;
    s.chain->run([server, session, request, ticket] {
        const auto t0 = std::chrono::steady_clock::now();
        JobResult result;
        server->runJob(*session, *request, result);
        const auto t1 = std::chrono::steady_clock::now();
        session->lastJobUs.store(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 -
                                                                  t0)
                .count(),
            std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(ticket->mutex_);
            ticket->result_ = std::move(result);
            ticket->ready_ = true;
        }
        ticket->done_.notify_all();
        session->queued.fetch_sub(1, std::memory_order_relaxed);
    });
    return {true, 0.0, ticket};
}

void
SessionHandle::drain()
{
    if (!session_)
        panic("drain() on an invalid session handle");
    session_->chain->wait();
}

void
SessionHandle::disconnect()
{
    if (!session_)
        panic("disconnect() on an invalid session handle");
    drain();
    server_->releaseSession(session_->tenant);
    session_.reset();
    server_ = nullptr;
}

// ---- MercuryServer ---------------------------------------------------

MercuryServer::MercuryServer(const ServeConfig &cfg)
    : cfg_(cfg), pipe_(cfg.pipeline)
{
    if (cfg_.maxSessions <= 0 || cfg_.maxQueuedPerSession <= 0)
        fatal("MercuryServer needs positive session/queue limits, "
              "got ",
              cfg_.maxSessions, "/", cfg_.maxQueuedPerSession);
    if (!cfg_.modelFactory)
        fatal("MercuryServer needs a model factory");
    // Persistence is the server's reason to exist: every leased
    // context keeps its MCACHE tags across requests.
    pipe_.persistent = true;
    const int threads = ThreadPool::resolveThreads(cfg_.sessionThreads);
    pool_ = std::make_unique<ThreadPool>(std::max(1, threads));

    // Timing backends of the per-job modeled-cycle stats, mirroring
    // the serving configuration (ServeConfig::sim picks the backend).
    AcceleratorConfig acfg;
    acfg.sim = cfg_.sim;
    acfg.mcacheSets = cfg_.sets;
    acfg.mcacheWays = cfg_.ways;
    acfg.mcacheDataVersions = cfg_.dataVersions;
    acfg.initialSignatureBits = cfg_.signatureBits;
    acfg.pipelineBlockRows = pipe_.blockRows;
    acfg.pipelineShards = pipe_.shards;
    acfg.pipelineThreads = pipe_.threads;
    acfg.overlapDetection = pipe_.overlap;
    acfg.persistentCache = true;
    costFwd_ = sim::CostModel::create(acfg);
    acfg.backwardReuse = true;
    acfg.weightGradReuse = true;
    costTrain_ = sim::CostModel::create(acfg);
}

MercuryServer::~MercuryServer()
{
    std::vector<std::shared_ptr<SessionHandle::Session>> live;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (auto &kv : sessions_)
            live.push_back(kv.second);
    }
    for (auto &s : live)
        s->chain->wait();
}

SessionHandle
MercuryServer::connect(int tenant)
{
    // The tenant id is client input: out of range is a refused
    // connection, not a panic that ends every tenant's session.
    if (tenant < 0 || tenant >= cfg_.maxTenants)
        return SessionHandle{};
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    if (sessions_.count(tenant) ||
        static_cast<int>(sessions_.size()) >= cfg_.maxSessions)
        return SessionHandle{};

    auto session = std::make_shared<SessionHandle::Session>(
        tenant, this, cfg_);
    session->model = cfg_.modelFactory(tenant);
    if (!session->model)
        panic("model factory returned no model for tenant ", tenant);
    session->ctx.setPipeline(pipe_);
    session->ctx.setTenant(tenant);
    const int cache_tenant =
        cfg_.cacheMode == CacheMode::PerTenant ? tenant : -1;
    session->ctx.setLayerCacheProvider(
        [this, cache_tenant](uint64_t layer_id) -> ShardedMCache & {
            return cacheSlot(cache_tenant, layer_id);
        });
    session->chain = std::make_unique<SerialExecutor>(pool_.get());
    sessions_[tenant] = session;

    SessionHandle handle;
    handle.session_ = std::move(session);
    handle.server_ = this;
    return handle;
}

void
MercuryServer::releaseSession(int tenant)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    sessions_.erase(tenant);
}

ShardedMCache &
MercuryServer::cacheSlot(int tenant, uint64_t layer_id)
{
    std::lock_guard<std::mutex> lock(cachesMutex_);
    LayerCaches &slot =
        tenant >= 0 ? tenantCaches_[tenant] : sharedCaches_;
    auto it = slot.find(layer_id);
    if (it == slot.end()) {
        auto cache = std::make_unique<ShardedMCache>(
            cfg_.sets, cfg_.ways, cfg_.dataVersions,
            pipe_.resolvedShards());
        if (tenant < 0 && cfg_.cacheMode == CacheMode::SharedQuota)
            cache->setTenantQuota(cfg_.tenantQuotaEntries,
                                  cfg_.maxTenants);
        cache->setEpoch(tenant >= 0 ? tenantEpochs_[tenant]
                                    : sharedEpoch_);
        cache->setInsertTenant(tenant >= 0 ? tenant
                                           : currentSharedTenant_);
        it = slot.emplace(layer_id, std::move(cache)).first;
    }
    return *it->second;
}

void
MercuryServer::runJob(SessionHandle::Session &s, JobRequest &req,
                      JobResult &out)
{
    // Shared modes: whole cache-touching jobs are serialized across
    // sessions (the pass-guard discipline): eviction, epoch stamping,
    // and every detection pass of a job see a cache no other session
    // is mutating. PerTenant sessions touch disjoint caches and run
    // fully concurrently.
    const bool shared = cfg_.cacheMode != CacheMode::PerTenant;
    std::unique_lock<std::mutex> guard;
    if (shared) {
        guard = std::unique_lock<std::mutex>(sharedJobMutex_);
        std::lock_guard<std::mutex> lock(cachesMutex_);
        currentSharedTenant_ = s.tenant;
        for (auto &kv : sharedCaches_)
            kv.second->setInsertTenant(s.tenant);
    }

    const ReuseStats f0 = s.ctx.totals();
    const ReuseStats b0 = s.ctx.backwardTotals();
    const ReuseStats w0 = s.ctx.weightGradTotals();
    if (req.kind == JobRequest::Kind::Train)
        out.loss = s.model->trainBatch(req.rows, req.labels, req.lr,
                                       &s.ctx);
    else
        out.output = s.model->forward(req.rows, &s.ctx);
    out.forward = statsDelta(s.ctx.totals(), f0);
    out.backward = statsDelta(s.ctx.backwardTotals(), b0);
    out.weightGrad = statsDelta(s.ctx.weightGradTotals(), w0);

    // Modeled accelerator cycles of this job's step under the
    // configured sim::CostModel backend, from the measured forward
    // mix — the stack is the step description Network::describeStep
    // emits.
    {
        const sim::CostModel &model = req.kind == JobRequest::Kind::Train
                                          ? *costTrain_
                                          : *costFwd_;
        const std::vector<LayerShape> stack =
            shapesFromStepDesc(s.model->describeStep(req.rows));
        const HitMix &m = out.forward.mix;
        const double hit_frac =
            m.vectors > 0
                ? static_cast<double>(m.hit) /
                      static_cast<double>(m.vectors)
                : 0.0;
        const double mnu_frac =
            m.vectors > 0
                ? static_cast<double>(m.mnu) /
                      static_cast<double>(m.vectors)
                : 0.0;
        std::vector<HitMix> mixes(stack.size());
        bool any_reusable = false;
        for (size_t i = 0; i < stack.size(); ++i) {
            if (!stack[i].reusable())
                continue;
            mixes[i] = HitMix::fromFractions(
                stack[i].vectorsPerChannel(), hit_frac, mnu_frac);
            any_reusable = true;
        }
        if (any_reusable) {
            const sim::CostBreakdown cost = model.stepCost(
                stack, mixes, req.rows.dim(0), cfg_.signatureBits);
            out.modeledBaselineCycles = cost.cycles.baseline;
            out.modeledMercuryCycles = cost.cycles.mercuryTotal();
        }
    }

    // Aging: job-count-driven (never wall-clock), so a serial replay
    // of the same streams reproduces every eviction decision.
    {
        std::lock_guard<std::mutex> lock(cachesMutex_);
        int64_t &jobs = shared ? sharedJobs_ : tenantJobs_[s.tenant];
        uint64_t &epoch =
            shared ? sharedEpoch_ : tenantEpochs_[s.tenant];
        ++jobs;
        if (cfg_.epochEveryJobs > 0 &&
            jobs % cfg_.epochEveryJobs == 0) {
            ++epoch;
            LayerCaches &slot =
                shared ? sharedCaches_ : tenantCaches_[s.tenant];
            for (auto &kv : slot) {
                kv.second->setEpoch(epoch);
                if (cfg_.evictionWindow > 0 &&
                    epoch > cfg_.evictionWindow)
                    kv.second->evictOlderThan(epoch -
                                              cfg_.evictionWindow);
            }
        }
        out.epochAfter = epoch;
    }
    jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
}

ServerStats
MercuryServer::stats() const
{
    ServerStats st;
    st.jobsCompleted = jobsCompleted_.load(std::memory_order_relaxed);
    st.jobsRejected = jobsRejected_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    st.activeSessions = static_cast<int>(sessions_.size());
    return st;
}

uint64_t
MercuryServer::tenantEpoch(int tenant) const
{
    std::lock_guard<std::mutex> lock(cachesMutex_);
    if (cfg_.cacheMode != CacheMode::PerTenant)
        return sharedEpoch_;
    const auto it = tenantEpochs_.find(tenant);
    return it == tenantEpochs_.end() ? 0 : it->second;
}

uint64_t
MercuryServer::sectionKey(int tenant, uint64_t layer_id)
{
    if (layer_id > 0xFFFFFFFFull)
        panic("layer id ", layer_id, " too large for a snapshot key");
    return (static_cast<uint64_t>(static_cast<uint32_t>(tenant + 1))
            << 32) |
           layer_id;
}

void
MercuryServer::saveSnapshot(Snapshot &snap) const
{
    std::lock_guard<std::mutex> lock(cachesMutex_);
    for (const auto &tc : tenantCaches_)
        for (const auto &kv : tc.second)
            snap.addCache(sectionKey(tc.first, kv.first), *kv.second);
    for (const auto &kv : sharedCaches_)
        snap.addCache(sectionKey(-1, kv.first), *kv.second);
}

bool
MercuryServer::loadSnapshot(const Snapshot &snap, std::string &error)
{
    std::lock_guard<std::mutex> lock(cachesMutex_);
    for (const auto &sec : snap.caches()) {
        const int tenant =
            static_cast<int>(sec.key >> 32) - 1; // -1 = shared
        const uint64_t layer_id = sec.key & 0xFFFFFFFFull;
        LayerCaches &slot =
            tenant >= 0 ? tenantCaches_[tenant] : sharedCaches_;
        auto it = slot.find(layer_id);
        if (it == slot.end()) {
            auto cache = std::make_unique<ShardedMCache>(
                cfg_.sets, cfg_.ways, cfg_.dataVersions,
                pipe_.resolvedShards());
            if (tenant < 0 &&
                cfg_.cacheMode == CacheMode::SharedQuota)
                cache->setTenantQuota(cfg_.tenantQuotaEntries,
                                      cfg_.maxTenants);
            it = slot.emplace(layer_id, std::move(cache)).first;
        }
        if (!snap.restoreCache(sec.key, *it->second, error))
            return false;
        // Resume the aging clock past the newest restored line so new
        // inserts never stamp an epoch older than restored state.
        uint64_t newest = 0;
        for (const auto &line : sec.lines)
            newest = std::max(newest, line.epoch);
        uint64_t &epoch =
            tenant >= 0 ? tenantEpochs_[tenant] : sharedEpoch_;
        epoch = std::max(epoch, newest);
        int64_t &jobs =
            tenant >= 0 ? tenantJobs_[tenant] : sharedJobs_;
        jobs = std::max(
            jobs, static_cast<int64_t>(epoch) *
                      std::max<int64_t>(1, cfg_.epochEveryJobs));
        it->second->setEpoch(epoch);
    }
    return true;
}

} // namespace mercury
