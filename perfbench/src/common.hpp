/**
 * @file
 * Pieces every workload shares: run options, the report a run fills,
 * host measurements (wall, CPU, peak RSS, the host-speed reference)
 * and ReuseStats arithmetic.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/reuse_runtime.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from `t0` to now. */
double secondsSince(Clock::time_point t0);

/** Settings of one run, from the command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string traceOut; ///< Chrome trace file of a traced run
};

/** What one run measured and checked. */
class Report
{
  public:
    /** Record metric `name`. BENCHMARK.json is the only list of
     *  names: run.py checks what a run recorded against it. */
    void set(const std::string &name, double value) { values_[name] = value; }

    double get(const std::string &name) const { return values_.at(name); }
    const std::map<std::string, double> &values() const { return values_; }

    /** Count `n` attempted operations (steps, jobs, checks). */
    void attempt(int64_t n = 1) { attempted_ += n; }

    /** Count one failed operation and say why on stdout. */
    void fail(const std::string &why);

    /** attempt() once, and fail(why) unless `ok`. */
    void check(bool ok, const std::string &why);

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

  private:
    std::map<std::string, double> values_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** Print one human-readable metric line. */
void show(const std::string &name, double value, const std::string &unit,
          const std::string &note = "");

/** Process CPU time, all threads, in seconds. */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/** Wall and CPU time of one reference pass, in ms. */
struct RefPass
{
    double wallMs = 0.0;
    double cpuMs = 0.0; ///< the calling thread's CPU time
};

/**
 * One pass of the host-speed reference: fixed work of the benchmark's
 * own that calls no library code — two small vectorized convolutions
 * (L1- and L2-sized) and random reads from an 8 MiB table — timed
 * after an untimed touch that puts its arrays in the core's caches.
 * Its time moves only with the host, so timings taken next to it can
 * be read at a fixed host speed (hostNormalized in stats.hpp).
 * Thread-safe: each thread has its own arrays; the table is read-only.
 */
RefPass referencePass();

/**
 * About the reference pass's time on the host the benchmark was
 * defined on (a 4-vCPU Intel Xeon VM, AVX-512) in a quiet phase, so
 * host-normalized times read close to that phase's wall times.
 */
constexpr double kNominalRefMs = 0.45;

/** Field-wise now - before. */
mercury::ReuseStats statsDelta(const mercury::ReuseStats &now,
                               const mercury::ReuseStats &before);

/** Field-wise a += b. */
void addStats(mercury::ReuseStats &a, const mercury::ReuseStats &b);

/** Bit-for-bit equality of every counter. */
bool sameStats(const mercury::ReuseStats &a, const mercury::ReuseStats &b);

/**
 * Mean of `losses`: train_loss. Across seeds the mean over every timed
 * step spreads less than the mean over the last ones (README findings).
 */
double meanLoss(const std::vector<float> &losses);

/** num / den, or 0 when den is 0. */
double ratio(double num, double den);

/**
 * The accelerator the modeled numbers describe: the run's signature
 * length, MCACHE geometry, thread knob and reuse switches. Every
 * other knob keeps its default.
 */
mercury::AcceleratorConfig modeledAccelerator(int sig_bits, int sets,
                                              int ways, int versions,
                                              int threads, bool reuse_grads);

/**
 * One channel-pass mix of `shape` at the fractions of a measured mix:
 * how MercuryServer derives a job's modeled mix from its forward mix.
 */
mercury::HitMix channelMix(const mercury::LayerShape &shape,
                           const mercury::HitMix &measured);

/** Median host time of one CostModel::stepCost call (of 101), in us. */
double stepCostUs(const mercury::sim::CostModel &model,
                  const std::vector<mercury::LayerShape> &stack,
                  const std::vector<mercury::HitMix> &mixes, int64_t batch,
                  int sig_bits);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
