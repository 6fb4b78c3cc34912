/**
 * @file
 * Tuning sweep of the detection-pipeline knobs over ImageNet-scale
 * layer shapes (ROADMAP "larger workloads").
 *
 * ResNet-50 convolutions at 224x224 inputs span detection passes from
 * 49 vectors (7x7 stage-5 maps) to 12544 vectors (112x112 stem) per
 * (image, channel) — three orders of magnitude around the CIFAR-sized
 * passes the defaults were first picked on. This bench sweeps
 * `pipelineBlockRows` over those pass shapes, measures detection
 * rows/sec through the full DetectionFrontend path, and reports the
 * best block size per shape.
 *
 * Emits a BENCH_tuning.json line in the shared result schema. Smoke
 * mode (MERCURY_BENCH_SMOKE=1) shrinks the grid and the pass sizes so
 * CI can exercise the harness in seconds. The pool has at least 4
 * threads unless MERCURY_BENCH_THREADS=N pins it.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pipeline/detection_frontend.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace mercury;

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kVersions = 4;
constexpr int kBits = 16;
constexpr uint64_t kSeed = 1234;

struct PassShape
{
    const char *name;
    int64_t rows; ///< vectors per detection pass
    int64_t dim;  ///< extracted vector dimension
};

} // namespace

int
main()
{
    using namespace mercury;
    const bool smoke = bench::smoke();
    const int env_threads = bench::benchThreads();
    const int threads = env_threads
                            ? ThreadPool::resolveThreads(env_threads)
                            : std::max(4, ThreadPool::resolveThreads(0));

    // ResNet-50 stages at 224x224 input: rows = outH*outW of one
    // channel pass, dim = kernel area of the per-channel extraction.
    std::vector<PassShape> shapes = {
        {"res50-conv1-7x7-112", 112 * 112, 49},
        {"res50-stage2-3x3-56", 56 * 56, 9},
        {"res50-stage3-3x3-28", 28 * 28, 9},
        {"res50-stage4-3x3-14", 14 * 14, 9},
        {"res50-stage5-3x3-7", 7 * 7, 9},
    };
    std::vector<int64_t> block_grid = {32, 64, 128, 256, 512};
    if (smoke) {
        shapes = {{"smoke-3x3-14", 14 * 14, 9}};
        block_grid = {64, 128};
    }

    std::printf("sweep_tuning: detection rows/sec over "
                "pipelineBlockRows, ImageNet-scale pass shapes\n");
    std::printf("(MCACHE %dx%d, %d versions, bits %d, threads %d%s)\n\n",
                kSets, kWays, kVersions, kBits, threads,
                smoke ? ", SMOKE MODE - numbers not meaningful" : "");

    double headline_best = 0.0, headline_default = 0.0;
    int64_t headline_block = 0;
    std::string headline_name;

    for (const PassShape &shape : shapes) {
        // Zipf-skewed prototypes: the hot-prototype regime of real
        // activation streams, so probes exercise realistic set
        // contention rather than uniform misses.
        Tensor rows = prototypeVectors(shape.rows, shape.dim,
                                       std::max<int64_t>(shape.rows / 8,
                                                         4),
                                       1e-3f, kSeed, 1.0);

        Table t(std::string("pass ") + shape.name + " (" +
                std::to_string(shape.rows) + " rows, d=" +
                std::to_string(shape.dim) + ")");
        t.header({"blockRows", "rows/s"});
        double best_rate = 0.0, default_rate = 0.0;
        int64_t best_block = 0;
        for (const int64_t block : block_grid) {
            PipelineConfig pipe;
            pipe.blockRows = block;
            pipe.threads = threads;
            DetectionFrontend fe(kSets, kWays, kVersions, kBits, kSeed,
                                 pipe);
            const double secs = bench::bestSeconds(
                [&] { fe.detect(rows, kBits); }, 0.5);
            const double rate = static_cast<double>(shape.rows) / secs;
            if (rate > best_rate) {
                best_rate = rate;
                best_block = block;
            }
            if (block == 64)
                default_rate = rate;
            t.row({std::to_string(block), Table::num(rate, 0)});
        }
        t.print();
        std::printf("best: blockRows=%lld (%.0f rows/s)\n\n",
                    static_cast<long long>(best_block), best_rate);
        // Headline: the first shape in the list (the largest pass).
        if (headline_name.empty()) {
            headline_name = shape.name;
            headline_best = best_rate;
            headline_default = default_rate;
            headline_block = best_block;
        }
    }

    bench::ResultLine line("BENCH_tuning.json", "sweep_tuning");
    line.text("headline_pass", headline_name)
        .num("best_rows_per_sec", headline_best, 0)
        .num("default_rows_per_sec", headline_default, 0)
        .speedups(std::nan(""), headline_default > 0.0
                                    ? headline_best / headline_default
                                    : 1.0)
        .config("blockRows", headline_block)
        .config("threads", threads)
        .config("bits", kBits);
    bench::stdConfig(line);
    line.print();
    return 0;
}
