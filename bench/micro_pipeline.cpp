/**
 * @file
 * Microbenchmark of the batched detection pipeline against the scalar
 * SimilarityDetector path: rows/sec of one full detection pass
 * (signature generation + MCACHE probing + hitmap) across vector
 * dimensions and signature lengths. Emits a BENCH_pipeline.json
 * summary line for the d=1152, bits=16 point the acceptance criteria
 * track.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/similarity_detector.hpp"
#include "pipeline/detection_frontend.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace mercury;

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr uint64_t kSeed = 99;

/** 2048 rows normally; a few blocks' worth in the CI smoke run. */
int64_t
benchRows()
{
    return bench::smoke() ? 192 : 2048;
}

struct Point
{
    int64_t dim;
    int bits;
    double scalarRate = 0.0;
    double pipelineRate = 0.0;

    double speedup() const { return pipelineRate / scalarRate; }
};

Point
measure(int64_t dim, int bits)
{
    Point p{dim, bits};
    Tensor rows = prototypeVectors(benchRows(), dim, benchRows() / 8, 0.01f,
                                   kSeed + static_cast<uint64_t>(dim),
                                   1.5);

    MCache scalar_cache(kSets, kWays, 1);
    RPQEngine rpq(dim, bits, kSeed);
    SimilarityDetector scalar(rpq, scalar_cache, bits);

    PipelineConfig pipe;
    pipe.blockRows = 64;
    pipe.threads = 0; // auto
    DetectionFrontend frontend(kSets, kWays, 1, bits, kSeed, pipe);

    // The pipeline must reproduce the scalar mix exactly.
    const HitMix ref = scalar.detect(rows).mix();
    const HitMix got = frontend.detect(rows, bits).mix;
    if (ref.hit != got.hit || ref.mau != got.mau || ref.mnu != got.mnu) {
        std::fprintf(stderr,
                     "FATAL: pipeline mix diverges from scalar path at "
                     "d=%lld bits=%d\n",
                     static_cast<long long>(dim), bits);
        std::exit(1);
    }

    const double ts = bench::bestSeconds([&] { scalar.detect(rows); });
    const double tp = bench::bestSeconds([&] { frontend.detect(rows, bits); });
    p.scalarRate = static_cast<double>(benchRows()) / ts;
    p.pipelineRate = static_cast<double>(benchRows()) / tp;
    return p;
}

} // namespace

int
main()
{
    using namespace mercury;

    std::printf("micro_pipeline: detection pass rows/sec, scalar "
                "SimilarityDetector vs DetectionFrontend\n");
    std::printf("(rows per pass: %lld, MCACHE %dx%d, threads auto=%d)\n\n",
                static_cast<long long>(benchRows()), kSets, kWays,
                ThreadPool::resolveThreads(0));

    Table t("detection front-end throughput");
    t.header({"dim", "bits", "scalar-rows/s", "pipeline-rows/s",
              "speedup"});
    Point headline{1152, 16};
    for (const int64_t dim : {int64_t{64}, int64_t{256}, int64_t{1152}}) {
        for (const int bits : {8, 16, 32}) {
            const Point p = measure(dim, bits);
            if (dim == 1152 && bits == 16)
                headline = p;
            t.row({std::to_string(dim), std::to_string(bits),
                   Table::num(p.scalarRate, 0),
                   Table::num(p.pipelineRate, 0),
                   Table::num(p.speedup(), 2) + "x"});
        }
    }
    t.print();

    std::printf("\n");
    bench::ResultLine line("BENCH_pipeline.json", "micro_pipeline");
    line.integer("d", 1152)
        .integer("rows", static_cast<long long>(benchRows()))
        .num("scalar_rows_per_sec", headline.scalarRate, 0)
        .num("pipeline_rows_per_sec", headline.pipelineRate, 0)
        // Throughput is a wall-clock view; there is no modeled-cycle
        // counterpart for the front-end microbenchmark.
        .speedups(std::nan(""), headline.speedup())
        .config("bits", 16)
        .config("blockRows", 64)
        .config("threads", ThreadPool::resolveThreads(0));
    bench::stdConfig(line);
    line.print();
    return 0;
}
