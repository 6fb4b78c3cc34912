/**
 * @file
 * Microbenchmark of the batched detection pipeline against the scalar
 * SimilarityDetector path: rows/sec of one full detection pass
 * (signature generation + MCACHE probing + hitmap) across vector
 * dimensions and signature lengths, plus the MCACHE block probe alone
 * in TSC cycles per row, on vgg13_train's pass shape and on full sets
 * of a persistent cache. Emits a BENCH_pipeline.json summary line for
 * the d=1152, bits=16 point the acceptance criteria track, with the
 * probe rows. The pipeline runs at the auto thread count;
 * MERCURY_BENCH_THREADS=N pins it.
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
measure(int64_t dim, int bits, int threads)
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
    pipe.threads = threads;
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
 * TSC cycles per row of the MCACHE block probe alone over `stream`,
 * passes of `rows` `bits`-bit signatures into a sets x kWays cache, as
 * DetectionFrontend::finishStream runs them: clear the cache unless
 * it is persistent, probe in 64-row blocks with the owner rule,
 * forget the pass's owners. A persistent cache is warmed by one sweep
 * of the stream first. Fewest cycles over the reps; `mix` gets one
 * sweep's outcomes. NaN off x86.
 */
double
probeCyclesPerRow(int sets, int bits, int32_t rows, bool persistent,
                  const std::vector<uint64_t> &stream, McacheCounters &mix)
{
#if defined(__x86_64__) || defined(__i386__)
    constexpr int32_t kBlock = 64;
    MCache cache(sets, kWays, 1);
    OwnerTable owners(cache.entries());
    const int64_t passes = static_cast<int64_t>(stream.size()) / rows;
    std::vector<int32_t> set_of(stream.size());
    cache.setIndices(bits, stream.data(), static_cast<int64_t>(stream.size()),
                     set_of.data());
    std::vector<uint8_t> outcomes(static_cast<size_t>(rows));
    std::vector<int32_t> ids(static_cast<size_t>(rows)),
        own(static_cast<size_t>(rows));
    const auto sweep = [&] {
        McacheCounters got;
        for (int64_t p = 0; p < passes; ++p) {
            if (!persistent)
                cache.clear();
            McacheProbe probe;
            probe.bits = bits;
            probe.wordsPerRow = 1;
            probe.words = stream.data() + p * rows;
            probe.sets = set_of.data() + p * rows;
            probe.outcomes = outcomes.data();
            probe.entryIds = ids.data();
            probe.owners = own.data();
            for (int32_t r0 = 0; r0 < rows; r0 += kBlock)
                cache.probeBlock(probe, r0, std::min(rows, r0 + kBlock),
                                 &owners);
            owners.nextPass();
            got.hits += probe.mix.hits;
            got.mau += probe.mix.mau;
            got.mnu += probe.mix.mnu;
        }
        return got;
    };
    if (persistent)
        sweep();
    double best = 1e300; // fewest TSC cycles over the reps
    const int reps = bench::smoke() ? 2 : 20;
    for (int rep = 0; rep < reps; ++rep) {
        const uint64_t c0 = __rdtsc();
        mix = sweep();
        best = std::min(best, static_cast<double>(__rdtsc() - c0));
    }
    return best / static_cast<double>(stream.size());
#else
    (void)sets, (void)bits, (void)rows, (void)persistent, (void)stream;
    mix = {};
    return std::nan("");
#endif
}

/**
 * vgg13_train's conv passes: 256-row passes of 28-bit signatures into
 * the 64x16 cache, cleared per pass, each pass 128 distinct signatures
 * drawn twice in a shuffled order, so half the rows HIT.
 */
double
probeB28CyclesPerRow()
{
    constexpr int kBits = 28;
    constexpr int32_t kRows = 256;
    const int passes = bench::smoke() ? 4 : 256;
    std::mt19937_64 rng(kSeed);
    std::vector<uint64_t> words;
    for (int p = 0; p < passes; ++p) {
        std::vector<uint64_t> pass;
        for (int32_t i = 0; i < kRows / 2; ++i) {
            const uint64_t w = rng() & ((1ull << kBits) - 1);
            pass.push_back(w);
            pass.push_back(w);
        }
        std::shuffle(pass.begin(), pass.end(), rng);
        words.insert(words.end(), pass.begin(), pass.end());
    }
    McacheCounters mix;
    const double cpr = probeCyclesPerRow(kSets, kBits, kRows, false, words,
                                         mix);
    if (mix.hits != static_cast<int64_t>(words.size()) / 2) {
        std::fprintf(stderr, "FATAL: probe stream hit %lld rows, not half\n",
                     static_cast<long long>(mix.hits));
        std::exit(1);
    }
    return cpr;
}

/**
 * Full sets: 64-row passes of 16-bit signatures into a persistent
 * 256x16 cache, drawn from 15600 distinct signatures, so every set
 * fills and about 70% of the rows miss with no free way (MNU).
 */
double
probeFullB16CyclesPerRow(McacheCounters &mix)
{
    constexpr int kBits = 16;
    constexpr int32_t kRows = 64;
    const int passes = bench::smoke() ? 128 : 1024;
    std::mt19937_64 rng(kSeed + 1);
    std::vector<uint64_t> pool(1u << kBits);
    for (size_t i = 0; i < pool.size(); ++i)
        pool[i] = i;
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.resize(15600);
    std::vector<uint64_t> words;
    for (int64_t i = 0; i < int64_t{passes} * kRows; ++i)
        words.push_back(pool[rng() % pool.size()]);
    return probeCyclesPerRow(256, kBits, kRows, true, words, mix);
}

} // namespace

int
main()
{
    using namespace mercury;
    const int threads = ThreadPool::resolveThreads(bench::benchThreads());

    std::printf("micro_pipeline: detection pass rows/sec, scalar "
                "SimilarityDetector vs DetectionFrontend\n");
    std::printf("(rows per pass: %lld, MCACHE %dx%d, threads %d)\n\n",
                static_cast<long long>(benchRows()), kSets, kWays, threads);

    Table t("detection front-end throughput");
    t.header({"dim", "bits", "scalar-rows/s", "pipeline-rows/s",
              "speedup"});
    Point headline{1152, 16};
    for (const int64_t dim : {int64_t{64}, int64_t{256}, int64_t{1152}}) {
        for (const int bits : {8, 16, 32}) {
            const Point p = measure(dim, bits, threads);
            if (dim == 1152 && bits == 16)
                headline = p;
            t.row({std::to_string(dim), std::to_string(bits),
                   Table::num(p.scalarRate, 0),
                   Table::num(p.pipelineRate, 0),
                   Table::num(p.speedup(), 2) + "x"});
        }
    }
    t.print();

    const double probe_cpr = probeB28CyclesPerRow();
    std::printf("\nMCACHE block probe alone (28-bit, 256-row passes into "
                "%dx%d, half HIT): %.1f TSC cycles per row\n",
                kSets, kWays, probe_cpr);
    McacheCounters full_mix;
    const double full_cpr = probeFullB16CyclesPerRow(full_mix);
    const double full_rows = static_cast<double>(
        std::max<int64_t>(1, full_mix.hits + full_mix.mau + full_mix.mnu));
    std::printf("MCACHE block probe, full sets (16-bit, 64-row passes into "
                "a persistent 256x%d, %.0f%% MNU): %.1f TSC cycles per row\n",
                kWays, 100.0 * static_cast<double>(full_mix.mnu) / full_rows,
                full_cpr);

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
        .num("probe_full_b16_cycles_per_row", full_cpr, 1)
        .config("bits", 16)
        .config("blockRows", 64)
        .config("threads", threads);
    bench::stdConfig(line);
    line.print();
    return 0;
}
