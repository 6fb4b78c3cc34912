/**
 * @file
 * Small numeric helpers (geometric mean, mean, standard deviation)
 * used by the experiment harnesses. Components keep their counters
 * in plain typed structs (e.g. McacheCounters, the event model's
 * stats() structs).
 */

#ifndef MERCURY_UTIL_STATS_HPP
#define MERCURY_UTIL_STATS_HPP

#include <vector>

namespace mercury {

/** Geometric mean of strictly positive values; panics on empty input. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; panics on empty input. */
double mean(const std::vector<double> &values);

/** Population standard deviation. */
double stddev(const std::vector<double> &values);

} // namespace mercury

#endif // MERCURY_UTIL_STATS_HPP
