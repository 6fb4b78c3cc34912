/**
 * @file
 * MercuryServer battery: golden equivalence of concurrent serving vs
 * serial private contexts (PerTenant), hit-superset under shared
 * dedup, backpressure, connect/disconnect churn (the TSan stress),
 * warm-start snapshots, and traffic-generator determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/layers.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int64_t kDim = 32;
constexpr int kClasses = 4;

/** Deterministic per-tenant two-layer MLP (the factory contract). */
std::unique_ptr<Network>
makeModel(int tenant)
{
    Rng rng(9000 + static_cast<uint64_t>(tenant));
    auto net = std::make_unique<Network>();
    net->add(std::make_unique<DenseLayer>(kDim, 24, rng,
                                          /*layer_id=*/1));
    net->add(std::make_unique<ReluLayer>());
    net->add(std::make_unique<DenseLayer>(24, kClasses, rng,
                                          /*layer_id=*/2));
    return net;
}

TrafficConfig
smallTraffic(int tenants, int64_t requests)
{
    TrafficConfig tc;
    tc.tenants = tenants;
    tc.requestsPerTenant = requests;
    tc.batch = 16;
    tc.dim = kDim;
    tc.classes = kClasses;
    tc.seed = 77;
    return tc;
}

ServeConfig
smallServer(CacheMode mode)
{
    ServeConfig cfg;
    cfg.cacheMode = mode;
    cfg.signatureBits = 14;
    cfg.sets = 64;
    cfg.ways = 8;
    cfg.dataVersions = 2;
    cfg.modelFactory = makeModel;
    return cfg;
}

/** Train on even request indices, infer on odd ones. */
JobRequest
jobOf(const TrafficRequest &req)
{
    JobRequest job;
    job.kind = req.index % 2 == 0 ? JobRequest::Kind::Train
                                  : JobRequest::Kind::Inference;
    job.rows = req.rows;
    job.labels = req.labels;
    job.lr = 0.05f;
    return job;
}

/** submit() with backoff until accepted. */
std::shared_ptr<JobTicket>
submitRetrying(SessionHandle &session, const JobRequest &job)
{
    for (;;) {
        SubmitStatus st = session.submit(job);
        if (st.accepted)
            return st.ticket;
        EXPECT_GT(st.retryAfterMs, 0.0);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

void
expectSameMix(const ReuseStats &a, const ReuseStats &b,
              const std::string &what)
{
    EXPECT_EQ(a.mix.vectors, b.mix.vectors) << what;
    EXPECT_EQ(a.mix.hit, b.mix.hit) << what;
    EXPECT_EQ(a.mix.mau, b.mix.mau) << what;
    EXPECT_EQ(a.mix.mnu, b.mix.mnu) << what;
    EXPECT_EQ(a.macsTotal, b.macsTotal) << what;
    EXPECT_EQ(a.macsSkipped, b.macsSkipped) << what;
}

/**
 * Serial reference for one tenant: the same jobs on a private
 * persistent MercuryContext, mirroring the server's job-count-driven
 * epoch/eviction schedule exactly.
 */
struct SerialReference
{
    std::unique_ptr<Network> model;
    MercuryContext ctx;
    int64_t jobs = 0;
    uint64_t epoch = 0;
    const ServeConfig &cfg;

    explicit SerialReference(int tenant, const ServeConfig &config)
        : model(config.modelFactory(tenant)),
          ctx(config.signatureBits, config.sets, config.ways,
              config.dataVersions, config.seed),
          cfg(config)
    {
        PipelineConfig pipe = config.pipeline;
        pipe.persistent = true;
        ctx.setPipeline(pipe);
        ctx.setTenant(tenant);
    }

    JobResult run(const JobRequest &job)
    {
        JobResult out;
        const ReuseStats f0 = ctx.totals();
        const ReuseStats b0 = ctx.backwardTotals();
        const ReuseStats w0 = ctx.weightGradTotals();
        if (job.kind == JobRequest::Kind::Train)
            out.loss =
                model->trainBatch(job.rows, job.labels, job.lr, &ctx);
        else
            out.output = model->forward(job.rows, &ctx);
        const auto delta = [](const ReuseStats &now,
                              const ReuseStats &before) {
            ReuseStats d;
            d.mix.vectors = now.mix.vectors - before.mix.vectors;
            d.mix.hit = now.mix.hit - before.mix.hit;
            d.mix.mau = now.mix.mau - before.mix.mau;
            d.mix.mnu = now.mix.mnu - before.mix.mnu;
            d.macsTotal = now.macsTotal - before.macsTotal;
            d.macsSkipped = now.macsSkipped - before.macsSkipped;
            return d;
        };
        out.forward = delta(ctx.totals(), f0);
        out.backward = delta(ctx.backwardTotals(), b0);
        out.weightGrad = delta(ctx.weightGradTotals(), w0);

        // Mirror MercuryServer::runJob's aging schedule.
        ++jobs;
        if (cfg.epochEveryJobs > 0 && jobs % cfg.epochEveryJobs == 0) {
            ++epoch;
            ctx.setEpoch(epoch);
            if (cfg.evictionWindow > 0 && epoch > cfg.evictionWindow)
                ctx.evictOlderThan(epoch - cfg.evictionWindow);
        }
        out.epochAfter = epoch;
        return out;
    }
};

// ---- Golden equivalence ---------------------------------------------

TEST(Serve, PerTenantServingIsBitIdenticalToSerial)
{
    // Three tenants served concurrently (private caches, aging and
    // eviction on) must produce bit-identical outputs, losses, stats
    // deltas, and epoch stamps to each tenant running its own jobs
    // serially on a private persistent context.
    const int kTenants = 3;
    const int64_t kRequests = 6;
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    cfg.epochEveryJobs = 2;
    cfg.evictionWindow = 2;

    const TrafficConfig tc = smallTraffic(kTenants, kRequests);

    // Served, concurrently: one client thread per tenant.
    std::vector<std::vector<JobResult>> served(
        static_cast<size_t>(kTenants));
    {
        MercuryServer server(cfg);
        std::vector<std::thread> clients;
        for (int t = 0; t < kTenants; ++t) {
            clients.emplace_back([&server, &served, &tc, t] {
                TrafficGenerator gen(tc); // per-thread: next() is
                                          // per-tenant deterministic
                SessionHandle session = server.connect(t);
                ASSERT_TRUE(session.valid());
                for (int64_t i = 0; i < tc.requestsPerTenant; ++i) {
                    const TrafficRequest req = gen.next(t);
                    auto ticket =
                        submitRetrying(session, jobOf(req));
                    served[static_cast<size_t>(t)].push_back(
                        ticket->wait());
                }
                session.disconnect();
            });
        }
        for (auto &c : clients)
            c.join();
        EXPECT_EQ(server.stats().jobsCompleted,
                  kTenants * kRequests);
        EXPECT_EQ(server.stats().activeSessions, 0);
    }

    // Serial reference, one tenant at a time.
    for (int t = 0; t < kTenants; ++t) {
        TrafficGenerator gen(tc);
        SerialReference ref(t, cfg);
        for (int64_t i = 0; i < tc.requestsPerTenant; ++i) {
            const TrafficRequest req = gen.next(t);
            const JobRequest job = jobOf(req);
            const JobResult want = ref.run(job);
            const JobResult &got =
                served[static_cast<size_t>(t)][static_cast<size_t>(i)];
            const std::string what = "tenant " + std::to_string(t) +
                                     " request " + std::to_string(i);
            if (job.kind == JobRequest::Kind::Train) {
                EXPECT_EQ(got.loss, want.loss) << what;
            } else {
                EXPECT_TRUE(bitIdentical(got.output, want.output))
                    << what;
            }
            expectSameMix(got.forward, want.forward, what + " fwd");
            expectSameMix(got.backward, want.backward, what + " bwd");
            expectSameMix(got.weightGrad, want.weightGrad,
                          what + " dW");
            EXPECT_EQ(got.epochAfter, want.epochAfter) << what;
        }
    }
}

TEST(Serve, PersistenceProducesCrossRequestHits)
{
    // The point of the server: correlated follow-up requests HIT
    // against tags inserted by earlier requests of the same session.
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    TrafficConfig tc = smallTraffic(1, 6);
    tc.temporalCorr = 1.0; // every request drifts off the previous

    MercuryServer server(cfg);
    SessionHandle session = server.connect(0);
    ASSERT_TRUE(session.valid());
    TrafficGenerator gen(tc);

    // The first request may still HIT within its own batch (same-
    // class rows dedup intra-pass); what persistence adds is hits
    // *beyond* that floor on every correlated follow-up.
    const JobResult first =
        submitRetrying(session, jobOf(gen.next(0)))->wait();

    int64_t later_hits = 0;
    for (int64_t i = 1; i < tc.requestsPerTenant; ++i)
        later_hits +=
            submitRetrying(session, jobOf(gen.next(0)))->wait()
                .forward.mix.hit;
    EXPECT_GT(later_hits,
              (tc.requestsPerTenant - 1) * first.forward.mix.hit);
    session.disconnect();
}

TEST(Serve, ReconnectFindsWarmCaches)
{
    // Tenant cache state is server-owned: disconnect + reconnect and
    // a repeat of the last request still HITs.
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    TrafficConfig tc = smallTraffic(1, 2);

    MercuryServer server(cfg);
    TrafficGenerator gen(tc);
    const TrafficRequest req = gen.next(0);

    SessionHandle first = server.connect(0);
    ASSERT_TRUE(first.valid());
    const JobResult cold = submitRetrying(first, jobOf(req))->wait();
    first.disconnect();
    EXPECT_FALSE(first.valid());

    SessionHandle second = server.connect(0);
    ASSERT_TRUE(second.valid());
    const JobResult warm = submitRetrying(second, jobOf(req))->wait();
    EXPECT_GT(warm.forward.mix.hit, 0);
    second.disconnect();
}

TEST(Serve, SharedDedupHitsAreASupersetOfPrivateHits)
{
    // With a cache generous enough never to MNU, a tenant sharing the
    // cache sees every HIT its private run saw (same probes, strictly
    // more tags present) — plus cross-tenant dedup hits on top.
    const int kTenants = 3;
    const int64_t kRequests = 4;
    ServeConfig cfg = smallServer(CacheMode::SharedDedup);
    cfg.sets = 512;
    cfg.ways = 16;
    cfg.evictionWindow = 0; // no aging: monotone tag growth

    const TrafficConfig tc = smallTraffic(kTenants, kRequests);

    // Private reference hit counts.
    std::vector<int64_t> private_hits(static_cast<size_t>(kTenants));
    for (int t = 0; t < kTenants; ++t) {
        ServeConfig priv = cfg;
        priv.cacheMode = CacheMode::PerTenant;
        TrafficGenerator gen(tc);
        SerialReference ref(t, priv);
        for (int64_t i = 0; i < kRequests; ++i) {
            const JobResult r = ref.run(jobOf(gen.next(t)));
            private_hits[static_cast<size_t>(t)] +=
                r.forward.mix.hit + r.backward.mix.hit +
                r.weightGrad.mix.hit;
            ASSERT_EQ(r.forward.mix.mnu, 0);
        }
    }

    // Served with the shared cache, concurrent tenants.
    std::vector<std::atomic<int64_t>> shared_hits(
        static_cast<size_t>(kTenants));
    std::vector<std::atomic<int64_t>> shared_mnu(
        static_cast<size_t>(kTenants));
    MercuryServer server(cfg);
    std::vector<std::thread> clients;
    for (int t = 0; t < kTenants; ++t) {
        clients.emplace_back([&, t] {
            TrafficGenerator gen(tc);
            SessionHandle session = server.connect(t);
            ASSERT_TRUE(session.valid());
            for (int64_t i = 0; i < kRequests; ++i) {
                const JobResult r =
                    submitRetrying(session, jobOf(gen.next(t)))
                        ->wait();
                shared_hits[static_cast<size_t>(t)] +=
                    r.forward.mix.hit + r.backward.mix.hit +
                    r.weightGrad.mix.hit;
                shared_mnu[static_cast<size_t>(t)] +=
                    r.forward.mix.mnu;
            }
            session.disconnect();
        });
    }
    for (auto &c : clients)
        c.join();

    for (int t = 0; t < kTenants; ++t) {
        EXPECT_EQ(shared_mnu[static_cast<size_t>(t)].load(), 0)
            << "cache not generous enough for the superset claim";
        EXPECT_GE(shared_hits[static_cast<size_t>(t)].load(),
                  private_hits[static_cast<size_t>(t)])
            << "tenant " << t;
    }
}

TEST(Serve, SharedQuotaCapsATenantsLines)
{
    ServeConfig cfg = smallServer(CacheMode::SharedQuota);
    cfg.tenantQuotaEntries = 4; // tiny: force rejections
    cfg.evictionWindow = 0;
    TrafficConfig tc = smallTraffic(1, 3);
    tc.temporalCorr = 0.0; // fresh rows every request
    tc.noise = 0.6f;       // scatter rows into distinct signatures

    MercuryServer server(cfg);
    SessionHandle session = server.connect(0);
    ASSERT_TRUE(session.valid());
    TrafficGenerator gen(tc);
    int64_t mnu = 0;
    for (int64_t i = 0; i < tc.requestsPerTenant; ++i)
        mnu += submitRetrying(session, jobOf(gen.next(0)))->wait()
                   .forward.mix.mnu;
    session.disconnect();
    // Far more distinct rows than quota lines: the gate must reject.
    EXPECT_GT(mnu, 0);
}

// ---- Backpressure and session limits --------------------------------

TEST(Serve, FullQueueRejectsWithRetryAfter)
{
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    cfg.sessionThreads = 1;
    cfg.maxQueuedPerSession = 2;
    MercuryServer server(cfg);
    SessionHandle session = server.connect(0);
    ASSERT_TRUE(session.valid());

    TrafficGenerator gen(smallTraffic(1, 1));
    const JobRequest job = jobOf(gen.next(0));

    // Flood without waiting: the bounded queue must reject some
    // submissions with a positive backoff hint and no ticket.
    bool saw_reject = false;
    std::vector<std::shared_ptr<JobTicket>> tickets;
    for (int i = 0; i < 200 && !saw_reject; ++i) {
        SubmitStatus st = session.submit(job);
        if (st.accepted) {
            tickets.push_back(st.ticket);
        } else {
            saw_reject = true;
            EXPECT_GT(st.retryAfterMs, 0.0);
            EXPECT_EQ(st.ticket, nullptr);
        }
    }
    EXPECT_TRUE(saw_reject);
    EXPECT_GT(server.stats().jobsRejected, 0);

    // Accepted work still completes, and a later retry is accepted.
    session.drain();
    for (auto &t : tickets)
        EXPECT_TRUE(t->ready());
    EXPECT_TRUE(session.submit(job).accepted);
    session.disconnect();
}

TEST(Serve, ConnectEnforcesSessionLimits)
{
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    cfg.maxSessions = 2;
    MercuryServer server(cfg);

    SessionHandle a = server.connect(0);
    ASSERT_TRUE(a.valid());
    EXPECT_FALSE(server.connect(0).valid()); // duplicate tenant
    SessionHandle b = server.connect(1);
    ASSERT_TRUE(b.valid());
    EXPECT_FALSE(server.connect(2).valid()); // all slots taken

    a.disconnect();
    SessionHandle c = server.connect(2); // freed slot
    EXPECT_TRUE(c.valid());
    b.disconnect();
    c.disconnect();
}

TEST(Serve, ConnectRefusesOutOfRangeTenantIds)
{
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    MercuryServer server(cfg);

    // Client input: refused with an invalid handle, no panic.
    EXPECT_FALSE(server.connect(-1).valid());
    EXPECT_FALSE(server.connect(cfg.maxTenants).valid());

    // The server is unharmed: a valid tenant connects and runs a job.
    SessionHandle session = server.connect(0);
    ASSERT_TRUE(session.valid());
    TrafficGenerator gen(smallTraffic(1, 1));
    const SubmitStatus st = session.submit(jobOf(gen.next(0)));
    ASSERT_TRUE(st.accepted);
    session.drain();
    EXPECT_TRUE(st.ticket->ready());
    EXPECT_EQ(server.stats().jobsCompleted, 1);
    session.disconnect();
}

// ---- Churn stress (the TSan target) ---------------------------------

TEST(Serve, ConnectDisconnectChurnUnderLoad)
{
    // Clients connect, serve a few jobs, disconnect, and reconnect in
    // a loop while other tenants are mid-epoch — the race surface
    // TSan patrols: session table, cache creation, aging sweeps,
    // queue counters.
    const int kTenants = 4;
    ServeConfig cfg = smallServer(CacheMode::SharedQuota);
    cfg.maxSessions = kTenants;
    cfg.epochEveryJobs = 3;
    cfg.evictionWindow = 1;
    cfg.tenantQuotaEntries = 64;

    const TrafficConfig tc = smallTraffic(kTenants, 100);
    MercuryServer server(cfg);
    std::atomic<int64_t> completed{0};

    std::vector<std::thread> clients;
    for (int t = 0; t < kTenants; ++t) {
        clients.emplace_back([&, t] {
            TrafficGenerator gen(tc);
            for (int round = 0; round < 3; ++round) {
                SessionHandle session = server.connect(t);
                ASSERT_TRUE(session.valid()); // slot reserved per tenant
                for (int64_t i = 0; i < 4; ++i) {
                    auto ticket =
                        submitRetrying(session, jobOf(gen.next(t)));
                    if (i % 2 == 0)
                        ticket->wait(); // mix waited and fire-forget
                    ++completed;
                }
                session.disconnect();
            }
        });
    }
    for (auto &c : clients)
        c.join();

    EXPECT_EQ(server.stats().jobsCompleted, completed.load());
    EXPECT_EQ(server.stats().activeSessions, 0);
}

// ---- Warm-start snapshots -------------------------------------------

TEST(Serve, SnapshotWarmStartBeatsColdStart)
{
    ServeConfig cfg = smallServer(CacheMode::PerTenant);
    const TrafficConfig tc = smallTraffic(2, 3);

    auto playTraffic = [&](MercuryServer &server) {
        int64_t hits = 0;
        for (int t = 0; t < tc.tenants; ++t) {
            TrafficGenerator gen(tc);
            SessionHandle session = server.connect(t);
            EXPECT_TRUE(session.valid());
            for (int64_t i = 0; i < tc.requestsPerTenant; ++i)
                hits += submitRetrying(session, jobOf(gen.next(t)))
                            ->wait()
                            .forward.mix.hit;
            session.disconnect();
        }
        return hits;
    };

    Snapshot snap;
    int64_t cold_hits = 0;
    {
        MercuryServer server(cfg);
        cold_hits = playTraffic(server);
        server.saveSnapshot(snap);
    }
    EXPECT_FALSE(snap.caches().empty());

    // Byte-canonical: the snapshot survives a serialize/parse cycle.
    const auto bytes = snap.serialize();
    Snapshot reloaded;
    std::string error;
    ASSERT_TRUE(Snapshot::parse(bytes.data(), bytes.size(), reloaded,
                                error))
        << error;

    // A warm-started server replays the same traffic with strictly
    // more hits: every request now probes against the full history.
    MercuryServer warm(cfg);
    ASSERT_TRUE(warm.loadSnapshot(reloaded, error)) << error;
    const int64_t warm_hits = playTraffic(warm);
    EXPECT_GT(warm_hits, cold_hits);

    // Epoch clocks resumed past the snapshot's newest line.
    EXPECT_GE(warm.tenantEpoch(0), tc.requestsPerTenant);
}

// ---- Traffic generator determinism ----------------------------------

TEST(Serve, TrafficGeneratorIsDeterministicAcrossInterleavings)
{
    const TrafficConfig tc = smallTraffic(3, 5);
    TrafficGenerator a(tc);
    TrafficGenerator b(tc);

    // Pull a's streams tenant-major, b's round-robin: per-tenant
    // streams must match bit for bit (this is what lets the serving
    // tests replay concurrent traffic serially).
    std::vector<std::vector<TrafficRequest>> as(3), bs(3);
    for (int t = 0; t < 3; ++t)
        for (int i = 0; i < 5; ++i)
            as[static_cast<size_t>(t)].push_back(a.next(t));
    for (int i = 0; i < 5; ++i)
        for (int t = 2; t >= 0; --t)
            bs[static_cast<size_t>(t)].push_back(b.next(t));

    for (int t = 0; t < 3; ++t) {
        for (int i = 0; i < 5; ++i) {
            const auto &ra = as[static_cast<size_t>(t)]
                               [static_cast<size_t>(i)];
            const auto &rb = bs[static_cast<size_t>(t)]
                               [static_cast<size_t>(i)];
            EXPECT_TRUE(bitIdentical(ra.rows, rb.rows))
                << "tenant " << t << " request " << i;
            EXPECT_EQ(ra.labels, rb.labels);
            EXPECT_EQ(ra.correlated, rb.correlated);
        }
    }

    // reset() rewinds to the identical stream.
    a.reset();
    EXPECT_TRUE(bitIdentical(a.next(1).rows,
                             as[1][0].rows));
}

TEST(Serve, TrafficTemporalCorrelationProducesNearDuplicates)
{
    TrafficConfig tc = smallTraffic(1, 8);
    tc.temporalCorr = 1.0;
    TrafficGenerator gen(tc);
    TrafficRequest prev = gen.next(0);
    EXPECT_FALSE(prev.correlated); // first draw is always fresh
    for (int i = 1; i < 8; ++i) {
        const TrafficRequest cur = gen.next(0);
        EXPECT_TRUE(cur.correlated);
        // Drift stays at driftNoise scale, far under the fresh-draw
        // noise floor: rows are near-duplicates of the previous
        // request.
        float max_delta = 0.0f;
        for (int64_t k = 0; k < cur.rows.numel(); ++k)
            max_delta = std::max(
                max_delta, std::abs(cur.rows.data()[k] -
                                    prev.rows.data()[k]));
        EXPECT_LT(max_delta, 0.05f);
        EXPECT_EQ(cur.labels, prev.labels);
        prev = cur;
    }
}

} // namespace
} // namespace mercury
