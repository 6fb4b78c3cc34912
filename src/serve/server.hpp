/**
 * @file
 * MercuryServer: a long-running, multi-tenant training/inference
 * front-end over the reuse stack (ROADMAP "MercuryServer").
 *
 * Every prior entry point is a one-shot main(): MCACHE starts cold,
 * so the paper's cross-input similarity is rediscovered from scratch
 * each run. The server keeps MCACHE *persistent across requests,
 * batches, and tenants* — each session's detection passes run with
 * PipelineConfig::persistent, so rows similar to earlier requests HIT
 * instead of re-inserting — and gives the cache a real lifecycle:
 * epoch-tag aging with window eviction, per-tenant quota or shared
 * dedup, and warm-start/shutdown snapshots (serve/snapshot.hpp).
 *
 * Request lifecycle (the in-process client API):
 *
 *   MercuryServer server(cfg);
 *   SessionHandle s = server.connect(tenant);   // leases a context
 *   SubmitStatus st = s.submit(job);            // bounded queue
 *   if (!st.accepted) retry after st.retryAfterMs;
 *   const JobResult &r = st.ticket->wait();     // blocks the client
 *   s.disconnect();                             // drains, frees slot
 *
 * Scheduling: thread-per-session over one shared util/ThreadPool —
 * each session is a SerialExecutor chain, so a session's jobs run in
 * submission order (the property the per-tenant stats/outputs
 * equivalence rests on) while different sessions' jobs interleave on
 * the pool workers. Backpressure: each session's queue is bounded at
 * ServeConfig::maxQueuedPerSession; submit() on a full queue rejects
 * with a retry-after hint derived from the session's recent job time
 * instead of blocking the client.
 *
 * Cache modes (ServeConfig::cacheMode):
 *  - PerTenant: every tenant owns private per-layer caches (server-
 *    held, surviving disconnect/reconnect). Tenants never share cache
 *    state, so a tenant's served results are bit-identical to running
 *    its jobs serially on a private persistent MercuryContext.
 *  - SharedDedup: all tenants share one set of per-layer caches —
 *    cross-tenant near-duplicates dedup against each other. Jobs that
 *    touch the shared caches run one at a time (the shared-job
 *    mutex); a tenant's hits become a superset of its private-cache
 *    hits (same probes, strictly more tags present) when the cache is
 *    large enough not to MNU.
 *  - SharedQuota: SharedDedup plus a per-tenant line quota
 *    (MCache::setTenantQuota): one tenant cannot evict-starve the
 *    others by filling the cache; its inserts MNU once it holds quota
 *    lines until aging frees them.
 *
 * Who touches a cache: an MCache takes no locks, so the server lets
 * one job at a time reach each cache. A PerTenant cache is reached
 * only through its tenant's one live session, whose chain runs its
 * jobs in order (connect refuses a second session for a tenant, and a
 * disconnected handle — every copy of it — accepts no more jobs); the
 * shared caches are reached only under the shared-job mutex.
 *
 * Aging: a tenant-scoped (PerTenant) or global (Shared*) epoch
 * advances every ServeConfig::epochEveryJobs completed jobs; with
 * evictionWindow = W > 0, lines last touched more than W epochs ago
 * are evicted after each advance. The schedule depends only on
 * completed-job counts — never on wall clock or interleaving — so a
 * serial replay of the same per-tenant streams reproduces eviction
 * decisions exactly (the golden-equivalence property).
 */

#ifndef MERCURY_SERVE_SERVER_HPP
#define MERCURY_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/mercury_hooks.hpp"
#include "nn/network.hpp"
#include "serve/snapshot.hpp"
#include "sim/cost_model.hpp"
#include "sim/sim_config.hpp"
#include "util/executors.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Cache-sharing policy across tenants (see file header). */
enum class CacheMode
{
    PerTenant,   ///< private per-tenant caches; bit-identical serving
    SharedDedup, ///< one cache for all tenants; cross-tenant dedup
    SharedQuota, ///< SharedDedup + per-tenant line quota
};

/** Server configuration. */
struct ServeConfig
{
    /** Worker threads of the session pool (0 = auto). */
    int sessionThreads = 0;

    /** Session slots == leased contexts; connect() rejects beyond. */
    int maxSessions = 8;

    /** Bounded per-session queue; submit() rejects when full. */
    int maxQueuedPerSession = 4;

    CacheMode cacheMode = CacheMode::PerTenant;

    /** MCACHE organization and signature length of every context. */
    int signatureBits = 16;
    int sets = 64;
    int ways = 16;
    int dataVersions = 4;
    uint64_t seed = 0xC0FFEE;

    /** Per-tenant line quota of SharedQuota mode. */
    int64_t tenantQuotaEntries = 256;
    int maxTenants = 64;

    /**
     * Aging: advance the epoch every this many completed jobs
     * (tenant-scoped in PerTenant mode, global in the shared modes;
     * <= 0 freezes the epoch), and evict lines older than
     * `evictionWindow` epochs after each advance (0 = never evict).
     */
    int64_t epochEveryJobs = 1;
    uint64_t evictionWindow = 0;

    /**
     * Detection knobs of every leased context. `persistent` is forced
     * on — that is the point of the server; construct contexts
     * directly for one-shot cold runs.
     */
    PipelineConfig pipeline;

    /**
     * Timing backend of the per-job modeled-cycle stats
     * (JobResult::modeledBaselineCycles / modeledMercuryCycles):
     * sim.backend / MERCURY_SIM_BACKEND picks analytic or event, the
     * same sim::CostModel selection every bench uses.
     */
    SimConfig sim;

    /**
     * Builds each session's model when a tenant connects. Must be
     * deterministic in the tenant id for the equivalence guarantees
     * to mean anything. Required.
     */
    std::function<std::unique_ptr<Network>(int tenant)> modelFactory;
};

/** One training or inference job. */
struct JobRequest
{
    enum class Kind
    {
        Inference, ///< forward only; JobResult::output
        Train,     ///< one SGD step; JobResult::loss
    };

    Kind kind = Kind::Inference;
    Tensor rows;             ///< input batch
    std::vector<int> labels; ///< Train only
    float lr = 0.01f;        ///< Train only
};

/** Completed-job payload. */
struct JobResult
{
    Tensor output;          ///< Inference output
    float loss = 0.0f;      ///< Train loss
    ReuseStats forward;     ///< this job's forward reuse delta
    ReuseStats backward;    ///< this job's backward-replay delta
    ReuseStats weightGrad;  ///< this job's dW-replay delta
    uint64_t epochAfter = 0; ///< the job's scope epoch on completion
    /** Modeled accelerator cycles of this job's step under the
     *  configured sim::CostModel backend (ServeConfig::sim), from the
     *  job's measured forward hit mix. Inference jobs model the
     *  forward sweep; Train jobs add the reuse-enabled gradient
     *  passes. Zero when the job's stack has no reusable layer. */
    uint64_t modeledBaselineCycles = 0;
    uint64_t modeledMercuryCycles = 0;
};

/** Completion handle of one accepted job. */
class JobTicket
{
  public:
    /** Block (client thread only) until the job completed. */
    const JobResult &wait();

    /** Non-blocking completion poll. */
    bool ready() const;

  private:
    friend class MercuryServer;
    friend class SessionHandle;
    mutable std::mutex mutex_;
    std::condition_variable done_;
    bool ready_ = false;
    JobResult result_;
};

/** submit() outcome: accepted with a ticket, or rejected-with-hint. */
struct SubmitStatus
{
    bool accepted = false;
    /** Rejections only: suggested client backoff, from the session's
     *  recent per-job latency times its queue depth. */
    double retryAfterMs = 0.0;
    std::shared_ptr<JobTicket> ticket; ///< null when rejected
};

class MercuryServer;

/**
 * Client-side session handle. Copyable (all copies address the same
 * session); must not outlive the server. A handle is invalid when
 * connect refused it or any copy of it disconnected: valid() is then
 * false, submit() rejects with no ticket and no retry hint, drain()
 * and disconnect() return at once, and tenant() is -1.
 */
class SessionHandle
{
  public:
    SessionHandle() = default;

    bool valid() const;

    /** The session's tenant id; -1 on an invalid handle. */
    int tenant() const;

    /**
     * Enqueue one job; never blocks (bounded queue, see header). A
     * full queue rejects with retryAfterMs > 0; an invalid handle
     * rejects with retryAfterMs == 0, as no retry can succeed.
     */
    SubmitStatus submit(JobRequest req);

    /** Block until every accepted job of this session completed. */
    void drain();

    /**
     * Close the session — from now on no copy of the handle accepts a
     * job — then drain it and release its slot. Tenant cache state
     * stays on the server (reconnect is warm).
     */
    void disconnect();

  private:
    friend class MercuryServer;
    struct Session;
    std::shared_ptr<Session> session_;
    MercuryServer *server_ = nullptr;
};

/** Aggregate serving counters. */
struct ServerStats
{
    int64_t jobsCompleted = 0;
    int64_t jobsRejected = 0;
    int activeSessions = 0;
};

/** The multi-tenant serving front-end (see file header). */
class MercuryServer
{
  public:
    explicit MercuryServer(const ServeConfig &cfg);

    /** Joins all sessions' outstanding work. */
    ~MercuryServer();

    MercuryServer(const MercuryServer &) = delete;
    MercuryServer &operator=(const MercuryServer &) = delete;

    const ServeConfig &config() const { return cfg_; }

    /**
     * Open a session for `tenant` (ids in [0, maxTenants)). Returns
     * an invalid handle when the tenant id is out of range, the
     * tenant already has a session, or all session slots are taken.
     * In PerTenant mode a reconnecting tenant finds its caches warm.
     */
    SessionHandle connect(int tenant);

    ServerStats stats() const;

    /** Scope epoch a tenant's jobs currently stamp (tests/metrics). */
    uint64_t tenantEpoch(int tenant) const;

    /**
     * Snapshot every persistent cache the server holds (shutdown /
     * warm-start). Quiescent only: no sessions may have jobs in
     * flight.
     */
    void saveSnapshot(Snapshot &snap) const;

    /**
     * Warm-start from a snapshot taken by a server with the same
     * organization and cache mode. Restores every section whose key
     * decodes to this server's scheme; false + error on the first
     * failed section (earlier sections stay restored — call before
     * serving). Call before any connect().
     */
    bool loadSnapshot(const Snapshot &snap, std::string &error);

  private:
    friend class SessionHandle;

    using LayerCaches = std::map<uint64_t, std::unique_ptr<MCache>>;

    ServeConfig cfg_;
    PipelineConfig pipe_; ///< cfg_.pipeline with persistent forced on
    std::unique_ptr<ThreadPool> pool_;

    /// Cache state outlives sessions (declared before sessions_ so it
    /// is destroyed after them) and survives disconnects.
    mutable std::mutex cachesMutex_;
    std::map<int, LayerCaches> tenantCaches_; ///< PerTenant mode
    LayerCaches sharedCaches_;                ///< Shared* modes
    std::map<int, int64_t> tenantJobs_;       ///< completed, PerTenant
    std::map<int, uint64_t> tenantEpochs_;    ///< PerTenant epochs
    int64_t sharedJobs_ = 0;                  ///< completed, Shared*
    uint64_t sharedEpoch_ = 0;
    /// Tenant whose shared-mode job currently runs: shared caches
    /// created lazily mid-job stamp their inserts with it.
    int currentSharedTenant_ = -1;

    /// Serializes cache-touching jobs across sessions in the shared
    /// modes (see "Who touches a cache" above).
    std::mutex sharedJobMutex_;

    /// Timing backends of the modeled-cycle job stats (stateless
    /// stepCost — safe to share across concurrent PerTenant jobs).
    /// costTrain_ adds the reuse-enabled gradient passes.
    std::unique_ptr<sim::CostModel> costFwd_;
    std::unique_ptr<sim::CostModel> costTrain_;

    mutable std::mutex sessionsMutex_;
    std::map<int, std::shared_ptr<SessionHandle::Session>> sessions_;

    std::atomic<int64_t> jobsCompleted_{0};
    std::atomic<int64_t> jobsRejected_{0};

    MCache &cacheSlot(int tenant, uint64_t layer_id);
    std::unique_ptr<MCache> newCache(int tenant) const;
    void runJob(SessionHandle::Session &s, JobRequest &req,
                JobResult &out);
    void releaseSession(const SessionHandle::Session &s);
    static uint64_t sectionKey(int tenant, uint64_t layer_id);
};

} // namespace mercury

#endif // MERCURY_SERVE_SERVER_HPP
