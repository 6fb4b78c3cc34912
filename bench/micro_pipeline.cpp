/**
 * @file
 * Microbenchmark of the batched detection pipeline against the scalar
 * SimilarityDetector path: rows/sec of one full detection pass
 * (signature generation + MCACHE probing + hitmap) across vector
 * dimensions and signature lengths, plus the MCACHE block probe alone
 * in TSC cycles per row. Emits a BENCH_pipeline.json summary line for
 * the d=1152, bits=16 point the acceptance criteria track, with the
 * probe row.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

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

/**
 * TSC cycles per row of the MCACHE probe alone: 256-row passes of
 * 28-bit signatures (vgg13_train's conv passes) into the 64x16 cache,
 * each pass 128 distinct signatures drawn twice in a shuffled order,
 * so half the rows HIT. Per pass, as DetectionFrontend::finishStream
 * runs it: clear the cache, probe in 64-row blocks with the owner
 * rule, forget the pass's owners. NaN off x86.
 */
double
probeCyclesPerRow()
{
#if defined(__x86_64__) || defined(__i386__)
    constexpr int kBits = 28;
    constexpr int32_t kRows = 256, kBlock = 64;
    const int passes = bench::smoke() ? 4 : 256;
    MCache cache(kSets, kWays, 1);
    OwnerTable owners(cache.entries());
    std::mt19937_64 rng(kSeed);
    std::vector<uint64_t> words;
    std::vector<int32_t> sets;
    for (int p = 0; p < passes; ++p) {
        std::vector<uint64_t> pass;
        for (int32_t i = 0; i < kRows / 2; ++i) {
            const uint64_t w = rng() & ((1ull << kBits) - 1);
            pass.push_back(w);
            pass.push_back(w);
        }
        std::shuffle(pass.begin(), pass.end(), rng);
        for (const uint64_t w : pass) {
            words.push_back(w);
            sets.push_back(cache.setIndexOf(kBits, &w));
        }
    }
    std::vector<uint8_t> outcomes(kRows);
    std::vector<int32_t> ids(kRows), own(kRows);
    int64_t hits = 0;
    double best = 1e300; // fewest TSC cycles over the reps
    const int reps = bench::smoke() ? 2 : 20;
    for (int rep = 0; rep < reps; ++rep) {
        const uint64_t c0 = __rdtsc();
        for (int p = 0; p < passes; ++p) {
            cache.clear();
            McacheProbe stream;
            stream.bits = kBits;
            stream.wordsPerRow = 1;
            stream.words = words.data() + static_cast<size_t>(p) * kRows;
            stream.sets = sets.data() + static_cast<size_t>(p) * kRows;
            stream.outcomes = outcomes.data();
            stream.entryIds = ids.data();
            stream.owners = own.data();
            for (int32_t r0 = 0; r0 < kRows; r0 += kBlock)
                cache.probeBlock(stream, r0, r0 + kBlock, &owners);
            owners.nextPass();
            hits += stream.mix.hits;
        }
        best = std::min(best, static_cast<double>(__rdtsc() - c0));
    }
    if (hits != int64_t{reps} * passes * kRows / 2) {
        std::fprintf(stderr, "FATAL: probe stream hit %lld rows, not half\n",
                     static_cast<long long>(hits));
        std::exit(1);
    }
    return best / (static_cast<double>(passes) * kRows);
#else
    return std::nan("");
#endif
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

    const double probe_cpr = probeCyclesPerRow();
    std::printf("\nMCACHE block probe alone (28-bit, 256-row passes into "
                "%dx%d, half HIT): %.1f TSC cycles per row\n",
                kSets, kWays, probe_cpr);

    std::printf("\n");
    bench::ResultLine line("BENCH_pipeline.json", "micro_pipeline");
    line.integer("d", 1152)
        .integer("rows", static_cast<long long>(benchRows()))
        .num("scalar_rows_per_sec", headline.scalarRate, 0)
        .num("pipeline_rows_per_sec", headline.pipelineRate, 0)
        // Throughput is a wall-clock view; there is no modeled-cycle
        // counterpart for the front-end microbenchmark.
        .speedups(std::nan(""), headline.speedup())
        .num("probe_b28_cycles_per_row", probe_cpr, 1)
        .config("bits", 16)
        .config("blockRows", 64)
        .config("threads", ThreadPool::resolveThreads(0));
    bench::stdConfig(line);
    line.print();
    return 0;
}
