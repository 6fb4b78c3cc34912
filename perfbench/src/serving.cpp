/**
 * @file
 * serve_tenants: a MercuryServer with PerTenant caches, driven as a
 * closed loop by two client threads (one tenant each; a client submits
 * its next job only after the previous one completed).
 *
 * The model and traffic are bench/serve_traffic's: Dense 64->48->8,
 * 64-row jobs alternating Train and Inference, from TrafficGenerator
 * with temporal correlation. A run is a fixed number of repetitions;
 * each one builds a fresh server (its caches start cold), runs a few
 * warm-up jobs per tenant (the first one timed as set-up), then times
 * both clients replaying the same pre-generated streams. Because
 * PerTenant serving is deterministic per tenant, every repetition must
 * reproduce the first one's results bit for bit. Every timed job runs
 * a reference pass inside the job (RefLayer), so the Train jobs'
 * latencies can be read at the nominal host speed.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/layers.hpp"
#include "serve/server.hpp"
#include "sim/cost_model.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

using mercury::JobRequest;
using mercury::JobResult;
using mercury::MercuryServer;
using mercury::ReuseStats;
using mercury::SessionHandle;

constexpr int kTenants = 2; // one closed-loop client thread each
constexpr int kSessionThreads = 2;
constexpr int64_t kRows = 64;
constexpr int64_t kDim = 64;
constexpr int64_t kHidden = 48;
constexpr int kClasses = 8;
constexpr int kSigBits = 16;
constexpr int kSets = 256;
constexpr int kWays = 16;
constexpr int kVersions = 2;
constexpr uint64_t kTrafficSeed = 4242; // bench/serve_traffic's prototypes
constexpr int64_t kStreamChoices = 1024;  // client-stream pairs a seed picks
constexpr int64_t kWarmupJobs = 8; // per tenant; the first is set-up
constexpr int64_t kTimedJobs = 300; // per tenant per repetition
/** Nominal repetitions per second on a 4-thread x86 host: a run makes
 *  seconds x rate repetitions, at least 3. Low enough that a traced
 *  run, which makes every repetition twice, ends well inside the
 *  benchmark's time limit in the host's slow phases. */
constexpr double kRepsPerSecond = 0.6;

/**
 * One tenant's handshake with the reference layer of its model. The
 * client writes `armed` before it submits a job and reads `wallMs`
 * after the job completed; the submit queue and the ticket order these
 * accesses with the worker thread's.
 */
struct RefSlot
{
    bool armed = false;
    double wallMs = 0.0; ///< the armed job's reference pass
};

/**
 * A benchmark-owned identity layer at the end of each served model.
 * In an armed job it runs a reference pass on the worker thread that
 * runs the job, so the pass sees the vCPU the job's work ran on, as a
 * training step's passes do. It describes itself as opaque, after
 * every layer with a shape, so the modeled cycles are the model's own.
 */
class RefLayer final : public mercury::Layer
{
  public:
    explicit RefLayer(RefSlot &slot) : slot_(slot) {}

    mercury::Tensor forward(const mercury::Tensor &x,
                            mercury::MercuryContext *) override
    {
        if (slot_.armed)
            slot_.wallMs = referencePass().wallMs;
        return x;
    }

    std::string name() const override { return "perfbench.reference"; }

  protected:
    mercury::Tensor backwardImpl(const mercury::Tensor &grad,
                                 mercury::MercuryContext *) override
    {
        return grad;
    }

  private:
    RefSlot &slot_;
};

using RefSlots = std::array<RefSlot, kTenants>;

mercury::ServeConfig
serveConfig(RefSlots &slots)
{
    mercury::ServeConfig cfg;
    cfg.sessionThreads = kSessionThreads;
    cfg.maxSessions = kTenants;
    cfg.cacheMode = mercury::CacheMode::PerTenant;
    cfg.signatureBits = kSigBits;
    cfg.sets = kSets;
    cfg.ways = kWays;
    cfg.dataVersions = kVersions;
    cfg.evictionWindow = 0;
    cfg.modelFactory = [&slots](int tenant) {
        mercury::Rng rng(9000 + static_cast<uint64_t>(tenant));
        auto net = std::make_unique<mercury::Network>();
        net->add(std::make_unique<mercury::DenseLayer>(kDim, kHidden, rng, 1));
        net->add(std::make_unique<mercury::ReluLayer>());
        net->add(
            std::make_unique<mercury::DenseLayer>(kHidden, kClasses, rng, 2));
        net->add(
            std::make_unique<RefLayer>(slots[static_cast<size_t>(tenant)]));
        return net;
    };
    return cfg;
}

/**
 * Every tenant's whole stream (warm-up jobs first), generated once. The
 * traffic's class prototypes are fixed, so they define the task; the
 * seed picks which client streams of that traffic the two tenants send
 * (a tenant's stream depends only on the traffic seed and its index).
 */
std::vector<std::vector<JobRequest>>
makeStreams(uint64_t seed)
{
    const int first = static_cast<int>(
        kTenants * (seed % static_cast<uint64_t>(kStreamChoices)));
    mercury::TrafficConfig tc;
    tc.tenants = first + kTenants;
    tc.requestsPerTenant = kWarmupJobs + kTimedJobs;
    tc.batch = kRows;
    tc.dim = kDim;
    tc.classes = kClasses;
    tc.temporalCorr = 0.7;
    tc.noise = 0.35f;
    tc.driftNoise = 0.02f;
    tc.seed = kTrafficSeed;
    mercury::TrafficGenerator gen(tc);
    std::vector<std::vector<JobRequest>> streams(kTenants);
    for (int t = 0; t < kTenants; ++t) {
        for (int64_t i = 0; i < tc.requestsPerTenant; ++i) {
            const mercury::TrafficRequest req = gen.next(first + t);
            JobRequest job;
            job.kind = req.index % 2 == 0 ? JobRequest::Kind::Train
                                          : JobRequest::Kind::Inference;
            job.rows = req.rows;
            job.labels = req.labels;
            job.lr = 0.02f;
            streams[static_cast<size_t>(t)].push_back(std::move(job));
        }
    }
    return streams;
}

bool
sameResult(const JobResult &a, const JobResult &b)
{
    return a.loss == b.loss && a.output == b.output &&
           sameStats(a.forward, b.forward) &&
           sameStats(a.backward, b.backward) &&
           sameStats(a.weightGrad, b.weightGrad) &&
           a.modeledBaselineCycles == b.modeledBaselineCycles &&
           a.modeledMercuryCycles == b.modeledMercuryCycles;
}

/** Span name ids of the traced repetitions. */
struct SpanIds
{
    int trainJob = 0;
    int inferJob = 0;
    int submit = 0;
    int wait = 0;
};

/** One tenant's jobs of one repetition. */
struct TenantRun
{
    std::vector<JobResult> results; ///< warm-up jobs first
    std::vector<double> latencyMs;  ///< timed jobs, submit to completion
    std::vector<double> trainMs;    ///< ... the Train jobs among them
    std::vector<double> trainRefMs; ///< ... their reference passes
    int64_t rejected = 0;           ///< refused submits (then retried)
};

/** Submit one job (retrying refusals) and wait for it. */
JobResult
serveOne(SessionHandle &session, const JobRequest &job, TenantRun &run,
         Tracer *tracer, int slot, const SpanIds &ids, int64_t id)
{
    std::shared_ptr<mercury::JobTicket> ticket;
    {
        ScopedSpan span(tracer, slot, ids.submit, id);
        for (;;) {
            mercury::SubmitStatus st = session.submit(job);
            if (st.accepted) {
                ticket = std::move(st.ticket);
                break;
            }
            ++run.rejected;
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(st.retryAfterMs));
        }
    }
    ScopedSpan span(tracer, slot, ids.wait, id);
    return ticket->wait();
}

/**
 * A client: the tenant's timed jobs, each after the previous one. Every
 * timed job is armed, so each runs one reference pass on its worker
 * thread and every job latency includes one.
 */
void
clientLoop(SessionHandle &session, const std::vector<JobRequest> &stream,
           TenantRun &run, RefSlot &ref, Tracer *tracer, int slot,
           const SpanIds &ids, int64_t id_base)
{
    for (size_t i = static_cast<size_t>(kWarmupJobs); i < stream.size();
         ++i) {
        const JobRequest &job = stream[i];
        const int64_t id = id_base + static_cast<int64_t>(i);
        const bool train = job.kind == JobRequest::Kind::Train;
        ref.armed = true;
        const Clock::time_point t0 = Clock::now();
        JobResult res;
        {
            ScopedSpan span(tracer, slot,
                            train ? ids.trainJob : ids.inferJob, id);
            res = serveOne(session, job, run, tracer, slot, ids, id);
        }
        run.latencyMs.push_back(secondsSince(t0) * 1e3);
        if (train) {
            run.trainMs.push_back(run.latencyMs.back());
            run.trainRefMs.push_back(ref.wallMs);
        }
        run.results.push_back(std::move(res));
    }
    ref.armed = false;
}

/**
 * A Train job's latency at the nominal host speed: the time outside
 * its reference pass, scaled by the nominal pass time over that pass's.
 */
double
normalizedLatencyMs(double latency_ms, double ref_ms)
{
    return (latency_ms - ref_ms) * kNominalRefMs / ref_ms;
}

struct RepResult
{
    double setupS = 0.0;     ///< wall time
    double setupNormS = 0.0; ///< ... at the nominal host speed
    double wallS = 0.0; ///< timed part
    double cpuS = 0.0;  ///< process CPU time over the timed part
    std::vector<TenantRun> tenants;
};

RepResult
runRep(const mercury::ServeConfig &cfg, RefSlots &slots,
       const std::vector<std::vector<JobRequest>> &streams, Tracer *tracer,
       const SpanIds &ids, int64_t rep)
{
    RepResult r;
    r.tenants.resize(kTenants);
    // Set-up: the server, its sessions and one warm-up job per tenant,
    // between two reference passes.
    const double ref_before = referencePass().wallMs;
    const Clock::time_point t0 = Clock::now();
    MercuryServer server(cfg);
    std::vector<SessionHandle> sessions;
    for (int t = 0; t < kTenants; ++t)
        sessions.push_back(server.connect(t));
    // Warm-up jobs after the first are armed, so each worker thread
    // sets up its reference pass before any job is timed.
    const auto warm = [&](int64_t i) {
        for (size_t t = 0; t < sessions.size(); ++t) {
            slots[t].armed = i > 0;
            r.tenants[t].results.push_back(
                serveOne(sessions[t], streams[t][static_cast<size_t>(i)],
                         r.tenants[t], nullptr, 0, ids, 0));
        }
    };
    warm(0);
    r.setupS = secondsSince(t0);
    r.setupNormS = hostNormalized({r.setupS},
                                  {ref_before, referencePass().wallMs},
                                  kNominalRefMs)[0];
    for (int64_t i = 1; i < kWarmupJobs; ++i)
        warm(i);

    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < kTenants; ++t) {
        clients.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            const size_t ti = static_cast<size_t>(t);
            clientLoop(sessions[ti], streams[ti], r.tenants[ti], slots[ti],
                       tracer, t, ids, (rep * kTenants + t) * 1'000'000);
        });
    }
    const double cpu0 = processCpuSeconds();
    const Clock::time_point w0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread &c : clients)
        c.join();
    r.wallS = secondsSince(w0);
    r.cpuS = processCpuSeconds() - cpu0;
    for (SessionHandle &s : sessions)
        s.disconnect();
    return r;
}

/** Count a repetition's jobs and check them against the first one. */
void
checkRep(const RepResult &r, const RepResult &first, int64_t rep,
         Report &report)
{
    for (size_t t = 0; t < r.tenants.size(); ++t) {
        const TenantRun &run = r.tenants[t];
        report.attempt(static_cast<int64_t>(run.results.size()));
        if (run.rejected > 0)
            report.fail("repetition " + std::to_string(rep) + ", tenant " +
                        std::to_string(t) + ": " +
                        std::to_string(run.rejected) + " refused submits");
        for (const JobResult &res : run.results)
            if (!std::isfinite(res.loss))
                report.fail("non-finite job loss");
        if (&r == &first)
            continue;
        bool same = run.results.size() == first.tenants[t].results.size();
        for (size_t i = 0; same && i < run.results.size(); ++i)
            same = sameResult(run.results[i], first.tenants[t].results[i]);
        report.check(same, "repetition " + std::to_string(rep) +
                               ", tenant " + std::to_string(t) +
                               ": results differ from repetition 0");
    }
}

void
checkTenantAlone(const mercury::ServeConfig &cfg,
                 const std::vector<JobRequest> &stream,
                 const TenantRun &served, Report &report)
{
    // The PerTenant golden property: tenant 0's stream replayed alone
    // on a fresh server reproduces its losses, outputs and stats.
    MercuryServer server(cfg);
    SessionHandle session = server.connect(0);
    TenantRun alone;
    bool same = stream.size() == served.results.size();
    for (size_t i = 0; same && i < stream.size(); ++i)
        same = sameResult(
            serveOne(session, stream[i], alone, nullptr, 0, SpanIds{}, 0),
            served.results[i]);
    session.disconnect();
    report.check(same, "tenant 0 replayed alone differs from the served "
                       "results");
}

/** Host time of one stepCost call on the serve model, in us. */
double
serveStepCostUs(const mercury::HitMix &measured)
{
    const auto model = mercury::sim::CostModel::create(modeledAccelerator(
        kSigBits, kSets, kWays, kVersions, kSessionThreads, true));
    const std::vector<mercury::LayerShape> stack = {
        mercury::LayerShape::fc("fc1", kDim, kHidden),
        mercury::LayerShape::fc("fc2", kHidden, kClasses)};
    std::vector<mercury::HitMix> mixes;
    for (const mercury::LayerShape &s : stack)
        mixes.push_back(channelMix(s, measured));
    return stepCostUs(*model, stack, mixes, kRows, kSigBits);
}

/** Job latencies, throughput and CPU of a set of repetitions. */
struct RepSummary
{
    std::vector<double> latencyMs;
    std::vector<double> trainMs;
    std::vector<double> trainNormMs; ///< at the nominal host speed
    std::vector<double> refMs;
    std::vector<double> jobsPerS;   ///< one per repetition
    std::vector<double> setupS;     ///< one per repetition
    std::vector<double> setupNormS; ///< ... at the nominal host speed
    double wallS = 0.0;
    double cpuS = 0.0;
    int64_t rejected = 0;

    void add(const RepResult &r)
    {
        int64_t jobs = 0;
        for (const TenantRun &t : r.tenants) {
            latencyMs.insert(latencyMs.end(), t.latencyMs.begin(),
                             t.latencyMs.end());
            trainMs.insert(trainMs.end(), t.trainMs.begin(), t.trainMs.end());
            for (size_t i = 0; i < t.trainMs.size(); ++i)
                trainNormMs.push_back(
                    normalizedLatencyMs(t.trainMs[i], t.trainRefMs[i]));
            refMs.insert(refMs.end(), t.trainRefMs.begin(),
                         t.trainRefMs.end());
            jobs += static_cast<int64_t>(t.latencyMs.size());
            rejected += t.rejected;
        }
        jobsPerS.push_back(static_cast<double>(jobs) / r.wallS);
        setupS.push_back(r.setupS);
        setupNormS.push_back(r.setupNormS);
        wallS += r.wallS;
        cpuS += r.cpuS;
    }
};

} // namespace

bool
isServingWorkload(const std::string &name)
{
    return name == "serve_tenants";
}

void
runServing(const Options &opt, Report &report)
{
    const int64_t reps =
        std::max<int64_t>(3, std::llround(opt.seconds * kRepsPerSecond));
    const auto streams = makeStreams(opt.seed);
    RefSlots slots;
    const mercury::ServeConfig cfg = serveConfig(slots);

    // A traced run alternates untraced and traced repetitions (spans
    // around each job's submit and wait), so host drift cancels out of
    // trace.overhead_frac.
    std::unique_ptr<Tracer> tracer;
    SpanIds ids;
    if (opt.trace) {
        tracer = std::make_unique<Tracer>(
            kTenants, static_cast<size_t>(3 * kTimedJobs * reps));
        ids.trainJob = tracer->intern("serve.train_job", "serve");
        ids.inferJob = tracer->intern("serve.infer_job", "serve");
        ids.submit = tracer->intern("serve.submit", "serve");
        ids.wait = tracer->intern("serve.wait", "serve");
    }
    RepSummary untraced, traced;
    RepResult first;
    for (int64_t rep = 0; rep < reps; ++rep) {
        RepResult r = runRep(cfg, slots, streams, nullptr, SpanIds{}, rep);
        checkRep(r, rep == 0 ? r : first, rep, report);
        untraced.add(r);
        if (rep == 0)
            first = std::move(r);
        if (tracer) {
            const RepResult t =
                runRep(cfg, slots, streams, tracer.get(), ids, rep);
            checkRep(t, first, rep, report);
            traced.add(t);
        }
    }
    checkTenantAlone(cfg, streams[0], first.tenants[0], report);

    // Deterministic job totals, from the first repetition's timed jobs.
    uint64_t base = 0, merc = 0;
    ReuseStats fwd;
    double train_loss = 0.0;
    int64_t timed_jobs = 0;
    for (const TenantRun &t : first.tenants) {
        std::vector<float> losses;
        for (size_t i = static_cast<size_t>(kWarmupJobs);
             i < t.results.size(); ++i) {
            const JobResult &r = t.results[i];
            base += r.modeledBaselineCycles;
            merc += r.modeledMercuryCycles;
            addStats(fwd, r.forward);
            ++timed_jobs;
            if (i % 2 == 0) // Train jobs: even stream indices
                losses.push_back(r.loss);
        }
        train_loss += meanLoss(losses) / kTenants;
    }

    // A Train job is a training step as its client sees it. Train and
    // Inference latencies form two modes, and the median of both would
    // fall between them, so the step time is the Train jobs' median.
    const double p90 = percentile(untraced.latencyMs, 0.9);
    const size_t n = untraced.latencyMs.size();
    report.set("setup_s", median(untraced.setupNormS));
    report.set("step_ms_p50", median(untraced.trainNormMs));
    report.set("host.ref_ms", median(untraced.refMs));
    report.set("modeled_speedup",
               ratio(static_cast<double>(base), static_cast<double>(merc)));
    report.set("train_loss", train_loss);

    std::printf("serve_tenants: %lld repetitions x %d closed-loop clients x "
                "%lld timed jobs of %lld rows (after %lld warm-up jobs "
                "each), PerTenant caches, %d session threads\n",
                static_cast<long long>(reps), kTenants,
                static_cast<long long>(kTimedJobs),
                static_cast<long long>(kRows),
                static_cast<long long>(kWarmupJobs), kSessionThreads);
    const std::string ns = "n=" + std::to_string(n);
    show("setup_s", report.get("setup_s"), "s",
         "median of " + std::to_string(reps) +
             " server set-ups, at nominal host speed");
    show("setup_s (wall)", median(untraced.setupS), "s", "as measured");
    show("step_ms_p50", report.get("step_ms_p50"), "ms",
         "Train jobs, n=" + std::to_string(untraced.trainMs.size()) +
             ", at nominal host speed");
    show("step_ms_p50 (wall)", median(untraced.trainMs), "ms",
         "as measured, each with its reference pass");
    show("reference pass", report.get("host.ref_ms"), "ms",
         "wall, on the worker threads; nominal " +
             std::to_string(kNominalRefMs));
    show("job_ms_p50", median(untraced.latencyMs), "ms", ns);
    show("job_ms_p90", p90, "ms", ns);
    report.set("serve.job_ms_p99", percentile(untraced.latencyMs, 0.99));
    show("job_ms_p99", report.get("serve.job_ms_p99"), "ms",
         ns + ", " + std::to_string(samplesBeyond(0.99, n)) +
             " beyond; highest tail with 10 beyond: " +
             tailName(tailLevel(n)));
    show("jobs_per_s", median(untraced.jobsPerS), "jobs/s",
         "median over repetitions");
    show("modeled_speedup", report.get("modeled_speedup"), "x",
         "summed JobResult modeled cycles");
    show("train_loss", train_loss, "nat",
         "mean over each tenant's timed Train jobs");

    const double v = static_cast<double>(fwd.mix.vectors);
    report.set("serve.rejected", static_cast<double>(untraced.rejected));
    report.set("serve.hit_frac", ratio(static_cast<double>(fwd.mix.hit), v));
    report.set("serve.vectors_per_job", v / static_cast<double>(timed_jobs));
    report.set("sim.step_cost_us", serveStepCostUs(fwd.mix));
    report.set("util.busy_frac",
               untraced.cpuS /
                   (untraced.wallS * (kSessionThreads + kTenants)));
    if (!tracer)
        return;

    std::vector<double> submit_us, train_ms, infer_ms;
    for (const Span &s : tracer->spans()) {
        const double us = s.endUs - s.startUs;
        if (s.name == ids.submit)
            submit_us.push_back(us);
        else if (s.name == ids.trainJob)
            train_ms.push_back(us / 1e3);
        else if (s.name == ids.inferJob)
            infer_ms.push_back(us / 1e3);
    }
    report.set("serve.submit_us", median(submit_us));
    report.set("serve.train_ms_p50", median(train_ms));
    report.set("serve.infer_ms_p50", median(infer_ms));
    report.set("trace.overhead_frac",
               median(traced.trainMs) / median(untraced.trainMs) - 1.0);
    if (!tracer->writeChromeTrace(opt.traceOut))
        report.fail("could not write the trace file " + opt.traceOut);
    else
        std::printf("trace: %s (%zu spans)\n", opt.traceOut.c_str(),
                    tracer->spans().size());
}

} // namespace perfbench
