/**
 * @file
 * The benchmark's workloads. Each one generates its inputs from the
 * run's seed before any timing starts, runs a fixed number of steps
 * or jobs (sized as --seconds times a nominal rate, so every count
 * and loss repeats exactly for equal arguments), checks the library's
 * outputs, and fills a Report.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>

#include "common.hpp"

namespace perfbench {

/** vgg13_train, vgg13_exact. */
bool isTrainingWorkload(const std::string &name);
void runTraining(const Options &opt, Report &report);

/** serve_tenants. */
bool isServingWorkload(const std::string &name);
void runServing(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
