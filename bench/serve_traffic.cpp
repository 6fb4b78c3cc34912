/**
 * @file
 * Serving bench: synthetic many-client traffic against MercuryServer.
 *
 * Two phases:
 *  - Latency/throughput: concurrent client threads replay correlated
 *    per-tenant request streams (workloads/synthetic TrafficGenerator
 *    — the same deterministic source tests/test_serve verifies) and
 *    record per-job p50/p95/p99 tail latency plus aggregate
 *    throughput. Wall-clock keys: host-dependent, never gated.
 *  - Warm-vs-cold hit rate: the same traffic replayed serially on a
 *    cold server and on one warm-started from the cold run's
 *    snapshot. Deterministic, so the modeled warm-over-cold speedup
 *    is a gated regression key: it is the measurable claim that a
 *    persistent MCACHE beats a cold start on correlated traffic.
 *
 * Emits one `BENCH_serve.json {...}` line (tools/check_bench.py).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "nn/layers.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace bench {
namespace {

struct Shape
{
    int tenants;
    int64_t requestsPerTenant;
    int64_t batch;
    int64_t dim;
    int classes;
    int64_t hidden;
};

Shape
shapeFor(bool smoke_mode)
{
    if (smoke_mode)
        return {2, 4, 16, 32, 4, 24};
    return {8, 32, 64, 64, 8, 48};
}

ServeConfig
serverFor(const Shape &sh)
{
    ServeConfig cfg;
    cfg.cacheMode = CacheMode::PerTenant;
    cfg.signatureBits = 16;
    cfg.sets = 256;
    cfg.ways = 16;
    cfg.dataVersions = 2;
    cfg.maxSessions = sh.tenants;
    cfg.evictionWindow = 0; // monotone warm-up: the snapshot keeps all
    cfg.modelFactory = [sh](int tenant) {
        Rng rng(9000 + static_cast<uint64_t>(tenant));
        auto net = std::make_unique<Network>();
        net->add(std::make_unique<DenseLayer>(sh.dim, sh.hidden, rng,
                                              /*layer_id=*/1));
        net->add(std::make_unique<ReluLayer>());
        net->add(std::make_unique<DenseLayer>(sh.hidden, sh.classes,
                                              rng, /*layer_id=*/2));
        return net;
    };
    return cfg;
}

TrafficConfig
trafficFor(const Shape &sh)
{
    TrafficConfig tc;
    tc.tenants = sh.tenants;
    tc.requestsPerTenant = sh.requestsPerTenant;
    tc.batch = sh.batch;
    tc.dim = sh.dim;
    tc.classes = sh.classes;
    tc.temporalCorr = 0.7;
    // Enough scatter that the hit fraction sits mid-band: the gated
    // warm-over-cold ratio stays off the 1/(1-h) asymptote where a
    // one-row mix shift would swing it.
    tc.noise = 0.35f;
    tc.driftNoise = 0.02f;
    tc.seed = 4242;
    return tc;
}

JobRequest
jobOf(const TrafficRequest &req)
{
    JobRequest job;
    job.kind = req.index % 2 == 0 ? JobRequest::Kind::Train
                                  : JobRequest::Kind::Inference;
    job.rows = req.rows;
    job.labels = req.labels;
    job.lr = 0.02f;
    return job;
}

double
percentileMs(std::vector<double> sorted_us, double p)
{
    if (sorted_us.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted_us.size() - 1) + 0.5);
    return sorted_us[std::min(idx, sorted_us.size() - 1)] / 1000.0;
}

/** One concurrent replay; fills per-job latencies, returns seconds. */
double
concurrentReplay(const ServeConfig &cfg, const TrafficConfig &tc,
                 std::vector<double> &latencies_us,
                 int64_t &rejected)
{
    MercuryServer server(cfg);
    std::vector<std::vector<double>> per_tenant(
        static_cast<size_t>(tc.tenants));
    std::vector<int64_t> tenant_rejects(
        static_cast<size_t>(tc.tenants));

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int t = 0; t < tc.tenants; ++t) {
        clients.emplace_back([&, t] {
            TrafficGenerator gen(tc);
            SessionHandle session = server.connect(t);
            for (int64_t i = 0; i < tc.requestsPerTenant; ++i) {
                const JobRequest job = jobOf(gen.next(t));
                const auto j0 = std::chrono::steady_clock::now();
                std::shared_ptr<JobTicket> ticket;
                for (;;) {
                    SubmitStatus st = session.submit(job);
                    if (st.accepted) {
                        ticket = st.ticket;
                        break;
                    }
                    ++tenant_rejects[static_cast<size_t>(t)];
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            st.retryAfterMs));
                }
                ticket->wait();
                const std::chrono::duration<double, std::micro> dt =
                    std::chrono::steady_clock::now() - j0;
                per_tenant[static_cast<size_t>(t)].push_back(
                    dt.count());
            }
            session.disconnect();
        });
    }
    for (auto &c : clients)
        c.join();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;

    latencies_us.clear();
    rejected = 0;
    for (int t = 0; t < tc.tenants; ++t) {
        auto &v = per_tenant[static_cast<size_t>(t)];
        latencies_us.insert(latencies_us.end(), v.begin(), v.end());
        rejected += tenant_rejects[static_cast<size_t>(t)];
    }
    return wall.count();
}

/** Serial replay totals over one server (deterministic). */
struct ReplayTotals
{
    int64_t vectors = 0;
    int64_t hits = 0;
    uint64_t macsTotal = 0;
    uint64_t macsSkipped = 0;
    uint64_t modeledBaseline = 0; ///< JobResult::modeledBaselineCycles
    uint64_t modeledMercury = 0;  ///< JobResult::modeledMercuryCycles

    void add(const ReuseStats &s)
    {
        vectors += s.mix.vectors;
        hits += s.mix.hit;
        macsTotal += s.macsTotal;
        macsSkipped += s.macsSkipped;
    }

    double hitFrac() const
    {
        return vectors ? static_cast<double>(hits) /
                             static_cast<double>(vectors)
                       : 0.0;
    }

    /**
     * Modeled accelerator speedup from the hit mix: on the paper's
     * accelerator a HIT's vector is served from the MCACHE data
     * slots, so its compute is skipped. (The software path computes
     * cross-pass HITs exactly — macsSkipped only counts intra-pass
     * skips — so the mix, not macsSkipped, is the cross-request
     * metric.)
     */
    double modelSpeedup() const
    {
        const int64_t kept = vectors - hits;
        return kept > 0 ? static_cast<double>(vectors) /
                              static_cast<double>(kept)
                        : 1.0;
    }

    /** Baseline / MERCURY cycles of the jobs' modeled steps, under
     *  the server's sim::CostModel backend (ServeConfig::sim). */
    double jobStepSpeedup() const
    {
        return modeledMercury > 0 ? static_cast<double>(modeledBaseline) /
                                        static_cast<double>(modeledMercury)
                                  : 1.0;
    }
};

/** The next `n` requests of every tenant's stream, as jobs. */
std::vector<std::vector<JobRequest>>
pullSegment(TrafficGenerator &gen, int64_t n)
{
    std::vector<std::vector<JobRequest>> seg(
        static_cast<size_t>(gen.config().tenants));
    for (int t = 0; t < gen.config().tenants; ++t)
        for (int64_t i = 0; i < n; ++i)
            seg[static_cast<size_t>(t)].push_back(jobOf(gen.next(t)));
    return seg;
}

ReplayTotals
playSegment(MercuryServer &server,
            const std::vector<std::vector<JobRequest>> &segment)
{
    ReplayTotals totals;
    for (size_t t = 0; t < segment.size(); ++t) {
        SessionHandle session = server.connect(static_cast<int>(t));
        for (const JobRequest &job : segment[t]) {
            SubmitStatus st = session.submit(job);
            const JobResult &r = st.ticket->wait();
            totals.add(r.forward);
            totals.add(r.backward);
            totals.add(r.weightGrad);
            totals.modeledBaseline += r.modeledBaselineCycles;
            totals.modeledMercury += r.modeledMercuryCycles;
        }
        session.disconnect();
    }
    return totals;
}

int
run()
{
    const bool smoke_mode = smoke();
    const Shape sh = shapeFor(smoke_mode);
    const ServeConfig cfg = serverFor(sh);
    const TrafficConfig tc = trafficFor(sh);

    banner("serve_traffic: many-client serving latency + warm-vs-cold "
           "hit rate",
           "persistent MCACHE turns cross-request similarity into "
           "HITs a cold start has to rediscover");

    // ---- Phase 1: concurrent latency / throughput -----------------
    std::vector<double> latencies_us;
    int64_t rejected = 0;
    double wall_s = 0.0;
    const double best_s = bestSeconds([&] {
        wall_s = concurrentReplay(cfg, tc, latencies_us, rejected);
    });
    (void)best_s; // percentiles come from the last replay
    std::sort(latencies_us.begin(), latencies_us.end());
    const int64_t jobs =
        static_cast<int64_t>(tc.tenants) * tc.requestsPerTenant;
    const double throughput =
        wall_s > 0.0 ? static_cast<double>(jobs) / wall_s : 0.0;

    std::printf("%d tenants x %lld requests: p50 %.3f ms, p95 %.3f "
                "ms, p99 %.3f ms, %.1f jobs/s, %lld backpressure "
                "rejections\n",
                tc.tenants,
                static_cast<long long>(tc.requestsPerTenant),
                percentileMs(latencies_us, 0.50),
                percentileMs(latencies_us, 0.95),
                percentileMs(latencies_us, 0.99), throughput,
                static_cast<long long>(rejected));

    // ---- Phase 2: warm vs cold restart (deterministic) ------------
    // Segment A of every tenant's stream warms a server, which then
    // snapshots at "shutdown". Segment B — the continuation of the
    // same streams, i.e. the traffic the restarted service actually
    // faces — is served once by a server warm-started from the
    // snapshot and once by a cold restart. The warm server's MCACHE
    // already holds the streams' history, so it converts segment-B
    // similarity into HITs the cold restart must rediscover.
    TrafficGenerator gen(tc);
    const auto warmup_seg = pullSegment(gen, tc.requestsPerTenant);
    const auto serve_seg = pullSegment(gen, tc.requestsPerTenant);

    Snapshot snap;
    ReplayTotals warmup;
    {
        MercuryServer first_life(cfg);
        warmup = playSegment(first_life, warmup_seg);
        first_life.saveSnapshot(snap);
    }

    MercuryServer warm_server(cfg);
    std::string error;
    if (!warm_server.loadSnapshot(snap, error)) {
        std::printf("FAIL: warm-start load: %s\n", error.c_str());
        return 1;
    }
    const ReplayTotals warm = playSegment(warm_server, serve_seg);

    MercuryServer cold_server(cfg);
    const ReplayTotals cold = playSegment(cold_server, serve_seg);

    std::printf("warm-up segment: hit %.3f\n", warmup.hitFrac());
    std::printf("cold restart:    hit %.3f, modeled speedup %.3f\n",
                cold.hitFrac(), cold.modelSpeedup());
    std::printf("warm restart:    hit %.3f, modeled speedup %.3f\n",
                warm.hitFrac(), warm.modelSpeedup());

    // Self-check: the warm start must beat the cold restart on the
    // very same traffic.
    if (warm.hits <= cold.hits || warm.hitFrac() <= cold.hitFrac()) {
        std::printf("FAIL: warm start did not beat cold restart\n");
        return 1;
    }

    ResultLine line("BENCH_serve.json", "serve_traffic");
    line.speedups(warm.modelSpeedup(),
                  std::numeric_limits<double>::quiet_NaN());
    line.num("hit_frac", warm.hitFrac(), 3);
    line.num("warmup_hit_frac", warmup.hitFrac(), 3);
    line.num("cold_hit_frac", cold.hitFrac(), 3);
    line.num("warm_hit_frac", warm.hitFrac(), 3);
    line.num("model_cold_speedup", cold.modelSpeedup(), 3);
    line.num("model_warm_speedup", warm.modelSpeedup(), 3);
    line.num("model_warm_over_cold_speedup",
             warm.modelSpeedup() / cold.modelSpeedup(), 3);
    line.num("model_job_step_speedup", warm.jobStepSpeedup(), 3);
    line.num("wall_p50_ms", percentileMs(latencies_us, 0.50), 3);
    line.num("wall_p95_ms", percentileMs(latencies_us, 0.95), 3);
    line.num("wall_p99_ms", percentileMs(latencies_us, 0.99), 3);
    line.num("wall_throughput_jobs_s", throughput, 1);
    line.integer("jobs", jobs);
    line.integer("wall_rejected", rejected);
    line.config("tenants", tc.tenants);
    line.config("requests_per_tenant", tc.requestsPerTenant);
    line.config("batch", tc.batch);
    line.config("dim", tc.dim);
    line.config("bits", cfg.signatureBits);
    line.config("mode", "per-tenant");
    stdConfig(line);
    line.print();
    return 0;
}

} // namespace
} // namespace bench
} // namespace mercury

int
main()
{
    return mercury::bench::run();
}
