/**
 * @file
 * Shared helpers for the experiment harnesses: a standard way to run
 * a MERCURY training simulation for a model, the paper-style tables,
 * the smoke-mode switch CI uses to exercise bench code on tiny
 * shapes, and the shared BENCH_*.json result schema.
 */

#ifndef MERCURY_BENCH_COMMON_HPP
#define MERCURY_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/mercury_accelerator.hpp"
#include "models/model_zoo.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/profiles.hpp"

namespace mercury {
namespace bench {

/**
 * Smoke mode (MERCURY_BENCH_SMOKE=1): benches shrink their shapes /
 * repetition counts so CI can run every harness in seconds. Numbers
 * from a smoke run are not meaningful — the mode only proves the
 * bench code still builds, runs, and emits its JSON line.
 */
inline bool
smoke()
{
    const char *env = std::getenv("MERCURY_BENCH_SMOKE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/**
 * Reduced-rep mode (MERCURY_BENCH_REPS=N): non-smoke runs cap at N
 * repetitions per measurement with no minimum-time requirement. The
 * CI wall-clock step uses this to measure real shapes on multi-core
 * runners in bounded time; the recorded BENCH_*.json numbers still
 * come from full-rep runs. Returns 0 when unset (full reps).
 */
inline int
reducedReps()
{
    const char *env = std::getenv("MERCURY_BENCH_REPS");
    if (env == nullptr || env[0] == '\0')
        return 0;
    const int reps = std::atoi(env);
    return reps > 0 ? reps : 0;
}

/**
 * Thread-count override for wall measurements
 * (MERCURY_BENCH_THREADS=N): pins the pool size of the pooled
 * configuration a bench measures (CI smoke-runs micro_overlap and
 * micro_runtime at 2 threads). Returns 0 when unset (the bench picks
 * its own count).
 */
inline int
benchThreads()
{
    const char *env = std::getenv("MERCURY_BENCH_THREADS");
    if (env == nullptr || env[0] == '\0')
        return 0;
    const int threads = std::atoi(env);
    return threads > 0 ? threads : 0;
}

/** Wall-time measurement over repetitions (seconds). */
struct WallTime
{
    double best = 0.0;   ///< fastest repetition
    double median = 0.0; ///< median repetition
    int reps = 0;        ///< repetitions measured
};

/**
 * Wall time of one invocation over repetitions: repeat until both
 * `min_reps` runs and `min_total` seconds have accumulated, and
 * report the fastest AND the median rep. The fastest is the
 * least-noise estimate the recorded speedups use; the median is
 * printed next to it so a wall line where best and median disagree
 * badly is visibly noisy. Smoke mode clamps both knobs so CI runs in
 * seconds; MERCURY_BENCH_REPS=N caps the rep count — one shared
 * definition, so the timing methodology behind every recorded
 * BENCH_*.json stays comparable across benches.
 */
template <typename Fn>
WallTime
wallSeconds(Fn &&fn, double min_total = 0.4, int min_reps = 3)
{
    if (smoke()) {
        min_total = 0.01;
        min_reps = 1;
    } else if (const int reps = reducedReps()) {
        min_total = 0.0;
        min_reps = reps;
    }
    using clock = std::chrono::steady_clock;
    std::vector<double> samples;
    double total = 0.0;
    while (static_cast<int>(samples.size()) < min_reps ||
           total < min_total) {
        const auto t0 = clock::now();
        fn();
        const std::chrono::duration<double> dt = clock::now() - t0;
        samples.push_back(dt.count());
        total += dt.count();
    }
    std::sort(samples.begin(), samples.end());
    WallTime wt;
    wt.best = samples.front();
    wt.median = samples[samples.size() / 2];
    wt.reps = static_cast<int>(samples.size());
    return wt;
}

/** Best-of-reps wall time in seconds (see wallSeconds). */
template <typename Fn>
double
bestSeconds(Fn &&fn, double min_total = 0.4, int min_reps = 3)
{
    return wallSeconds(std::forward<Fn>(fn), min_total, min_reps).best;
}

/**
 * One BENCH_<name>.json summary line in the shared result schema:
 * every microbench emits `bench`, `modeled_speedup`, `wall_speedup`
 * (null where a view does not apply), a nested `config` object with
 * the knobs the run used, plus bench-specific extras. Keeping the
 * shape identical across micro_pipeline / micro_overlap /
 * sweep_tuning keeps the recorded JSON artifacts diffable.
 */
class ResultLine
{
  public:
    /** @param artifact e.g. "BENCH_overlap.json"; bench name key */
    ResultLine(std::string artifact, const std::string &bench)
        : artifact_(std::move(artifact))
    {
        text("bench", bench);
    }

    /** The two schema speedups; NaN prints as null (view missing). */
    ResultLine &speedups(double modeled, double wall)
    {
        num("modeled_speedup", modeled, 3);
        num("wall_speedup", wall, 3);
        return *this;
    }

    ResultLine &num(const std::string &key, double v, int prec = 3)
    {
        if (std::isnan(v))
            return raw(key, "null");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", prec, v);
        return raw(key, buf);
    }

    ResultLine &integer(const std::string &key, long long v)
    {
        return raw(key, std::to_string(v));
    }

    ResultLine &text(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    /** Knob in the nested `config` object. */
    ResultLine &config(const std::string &key, long long v)
    {
        configRaw(key, std::to_string(v));
        return *this;
    }

    ResultLine &config(const std::string &key, const std::string &v)
    {
        configRaw(key, "\"" + v + "\"");
        return *this;
    }

    /** Print the `ARTIFACT {json}` line the driver greps for. */
    void print() const
    {
        std::printf("%s {%s,\"config\":{%s}}\n", artifact_.c_str(),
                    fields_.c_str(), configFields_.c_str());
    }

  private:
    ResultLine &raw(const std::string &key, const std::string &v)
    {
        if (!fields_.empty())
            fields_ += ",";
        fields_ += "\"" + key + "\":" + v;
        return *this;
    }

    void configRaw(const std::string &key, const std::string &v)
    {
        if (!configFields_.empty())
            configFields_ += ",";
        configFields_ += "\"" + key + "\":" + v;
    }

    std::string artifact_;
    std::string fields_;
    std::string configFields_;
};

/**
 * Standard trailing `config` knobs every bench records: the active
 * sim::CostModel backend (SimConfig::backend after the
 * MERCURY_SIM_BACKEND override — so recorded artifacts say which
 * timing model produced them) and the smoke switch. Call last, after
 * the bench-specific knobs.
 */
inline ResultLine &
stdConfig(ResultLine &line, const AcceleratorConfig &cfg)
{
    return line.config("sim_backend", sim::resolvedBackendName(cfg))
        .config("smoke", smoke() ? 1 : 0);
}

/** stdConfig under the default accelerator configuration — benches
 *  whose measurement has no AcceleratorConfig in scope (the backend
 *  still reflects MERCURY_SIM_BACKEND). */
inline ResultLine &
stdConfig(ResultLine &line)
{
    const AcceleratorConfig cfg;
    return stdConfig(line, cfg);
}

/** Simulation knobs shared by the speedup experiments. */
struct RunParams
{
    int batches = 4;        ///< accounted batches
    int warmup = 6;         ///< adaptation warmup batches
    int64_t batch = 1;      ///< minibatch size (cycles scale linearly)
    int64_t sampleCap = 512;
    int64_t dimCap = 32;
    uint64_t seed = 42;
};

/** Run one model's training simulation under a configuration. */
inline TrainingReport
runModel(const ModelConfig &model, const AcceleratorConfig &cfg,
         const RunParams &params = {})
{
    SyntheticSimilaritySource source(model, cfg, params.seed,
                                     params.sampleCap, params.dimCap);
    MercuryAccelerator acc(cfg, model.layers);
    return acc.train(source, params.batches, params.batch, {},
                     params.warmup);
}

/** Banner naming the paper artifact a harness regenerates. */
inline void
banner(const std::string &what, const std::string &paper_result)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Paper reference result: %s\n", paper_result.c_str());
    std::printf("==========================================================\n\n");
}

} // namespace bench
} // namespace mercury

#endif // MERCURY_BENCH_COMMON_HPP
