/**
 * @file
 * Order statistics of the benchmark's timing samples.
 *
 * Percentiles are nearest-rank: the reported value is always one of
 * the samples, never an interpolation, so "k samples beyond it" has
 * an exact meaning.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples a tail percentile must leave beyond it to be reported. */
constexpr size_t kTailSamplesBeyond = 10;

/**
 * 1-based nearest rank of percentile `p` (in (0, 1]) among `n`
 * samples: ceil(p * n), clamped to [1, n].
 */
size_t nearestRank(double p, size_t n);

/** Samples strictly beyond the nearest-rank `p` percentile of `n`. */
size_t samplesBeyond(double p, size_t n);

/** Nearest-rank percentile `p` of `samples` (need not be sorted). */
double percentile(std::vector<double> samples, double p);

/** Median (nearest-rank p50) of `samples`. */
double median(std::vector<double> samples);

/**
 * The highest percentile of the ladder 90, 95, 99, 99.9 that leaves
 * at least kTailSamplesBeyond samples beyond it among `n` samples, or
 * 0 when even p90 is unsupported (fewer than 100 samples).
 */
double tailLevel(size_t n);

/** "p90", "p95", "p99" or "p99.9" for a tailLevel() result. */
const char *tailName(double level);

/**
 * Host-normalized samples. Sample i was timed between reference passes
 * i and i + 1 (`ref` has one more entry than `samples`); it is scaled
 * by `nominal` over the mean of those two passes, which reads it at the
 * host speed where one reference pass takes `nominal`.
 */
std::vector<double> hostNormalized(const std::vector<double> &samples,
                                   const std::vector<double> &ref,
                                   double nominal);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
