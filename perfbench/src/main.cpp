/**
 * @file
 * perfbench: runs one workload and prints its result.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace 0
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace 1
 *             --trace-out <file>
 *
 * Human-readable lines come first; the last line of standard output
 * is one JSON object with the keys correct, attempted, failed and
 * metrics, which maps every metric the run measured to its value.
 * run.py picks the ones BENCHMARK.json lists for the run's mode and
 * gives them their units. The exit code is 0 only when every output
 * check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 why);
    return 2;
}

/** The result line: every metric the run measured, by name. */
void
printResult(Report &rep)
{
    for (const auto &kv : rep.values())
        if (!std::isfinite(kv.second))
            rep.fail("metric " + kv.first + " is not finite");
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                rep.failed() == 0 ? "true" : "false",
                static_cast<long long>(rep.attempted()),
                static_cast<long long>(rep.failed()));
    const char *sep = "";
    for (const auto &kv : rep.values()) {
        std::printf("%s\"%s\": %.17g", sep, kv.first.c_str(),
                    std::isfinite(kv.second) ? kv.second : 0.0);
        sep = ", ";
    }
    std::printf("}}\n");
}

int
run(const Options &opt)
{
    Report rep;
    if (isTrainingWorkload(opt.workload))
        runTraining(opt, rep);
    else
        runServing(opt, rep);
    rep.set("peak_rss_mb", peakRssMb());

    show("peak_rss_mb", rep.get("peak_rss_mb"), "MB");
    show("failed_frac",
         ratio(static_cast<double>(rep.failed()),
               static_cast<double>(rep.attempted())),
         "ratio",
         std::to_string(rep.failed()) + " of " +
             std::to_string(rep.attempted()) + " steps, jobs and checks");
    std::fflush(stdout);
    printResult(rep);
    return rep.failed() == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value after " + arg).c_str());
        const std::string val = argv[++i];
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atoi(val.c_str());
        } else if (arg == "--trace") {
            opt.trace = val == "1";
        } else if (arg == "--trace-out") {
            opt.traceOut = val;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    if (!isTrainingWorkload(opt.workload) &&
        !isServingWorkload(opt.workload))
        return usage("--workload must name one of the workloads");
    if (opt.seconds < 1)
        return usage("--seconds must be at least 1");
    if (opt.trace && opt.traceOut.empty())
        return usage("--trace 1 needs --trace-out <file>");
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
