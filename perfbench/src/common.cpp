#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <ctime>

#include "stats.hpp"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    const std::chrono::duration<double> d = Clock::now() - t0;
    return d.count();
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    std::printf("FAIL: %s\n", why.c_str());
}

void
Report::check(bool ok, const std::string &why)
{
    attempt();
    if (!ok)
        fail(why);
}

void
show(const std::string &name, double value, const std::string &unit,
     const std::string &note)
{
    std::printf("  %-30s %14.6g %-9s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * A 3x3 convolution of C channels over HW x HW with its own input,
 * weights and output. The sizes are compile-time constants so that
 * the inner loop over output columns is vectorized.
 */
template <int C, int HW>
class RefConv
{
  public:
    explicit RefConv(uint64_t seed)
    {
        for (float &v : in_)
            v = static_cast<float>(xorshift(seed) >> 40) * 1e-7f - 0.8f;
        for (float &v : w_)
            v = static_cast<float>(xorshift(seed) >> 40) * 1e-8f - 0.08f;
    }

    /** Reads every array once, so all of them are in this core's caches. */
    float touch() const
    {
        float sum = 0.0f;
        for (size_t i = 0; i < in_.size(); i += 16)
            sum += in_[i];
        for (size_t i = 0; i < w_.size(); i += 16)
            sum += w_[i];
        for (size_t i = 0; i < out_.size(); i += 16)
            sum += out_[i];
        return sum;
    }

    /** One convolution; returns the sum of its ReLU outputs. */
    float run()
    {
        float sum = 0.0f;
        for (int o = 0; o < C; ++o) {
            float *out = &out_[o * HW * HW];
            std::fill_n(out, HW * HW, 0.0f);
            for (int i = 0; i < C; ++i)
                for (int ky = 0; ky < 3; ++ky)
                    for (int kx = 0; kx < 3; ++kx) {
                        const float wv =
                            w_[((o * C + i) * 3 + ky) * 3 + kx];
                        const float *in =
                            &in_[(i * kPadded + ky) * kPadded + kx];
                        for (int r = 0; r < HW; ++r)
                            for (int c = 0; c < HW; ++c)
                                out[r * HW + c] += in[r * kPadded + c] * wv;
                    }
            for (int k = 0; k < HW * HW; ++k)
                sum += std::max(out[k], 0.0f);
        }
        // The next run depends on this one, so no run can be skipped.
        in_[0] += sum * 1e-9f;
        return sum;
    }

  private:
    static constexpr int kPadded = HW + 2;
    std::array<float, C * kPadded * kPadded> in_;
    std::array<float, C * C * 9> w_;
    std::array<float, C * HW * HW> out_{};
};

// The pass's parts: repeated runs of a convolution whose arrays fit in
// L1 (about 20 KB), one run of one that needs L2 (about 90 KB), and
// random reads from a table larger than L2. Measured against the
// training steps over a slow host's phases, this mix tracked them
// more closely than any part alone or than scalar code, integer
// hashing or allocation churn did (see the README).
constexpr int kRefSmallReps = 12;
constexpr size_t kRefTableSize = size_t{1} << 21; // 8 MiB of words
constexpr int kRefTableReads = 25'000;

/** The pass's shared read-only table, built on first use. */
const std::vector<uint32_t> &
refTable()
{
    static const std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(kRefTableSize);
        uint64_t x = 0x2545F4914F6CDD1Dull;
        for (uint32_t &v : t)
            v = static_cast<uint32_t>(xorshift(x));
        return t;
    }();
    return table;
}

} // namespace

RefPass
referencePass()
{
    // Each thread has its own convolutions, built on its first call.
    // The untimed touch brings them into this core's caches, so the
    // timed part does not depend on what the work before evicted.
    thread_local RefConv<8, 16> small(1);
    thread_local RefConv<16, 24> large(2);
    const std::vector<uint32_t> &table = refTable();
    float sum = large.touch() + small.touch();

    const double cpu0 = threadCpuMs();
    const Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < kRefSmallReps; ++rep)
        sum += small.run();
    sum += large.run();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint32_t read = 0;
    for (int i = 0; i < kRefTableReads; ++i)
        read += table[xorshift(x) & (kRefTableSize - 1)];
    const RefPass pass{secondsSince(t0) * 1e3, threadCpuMs() - cpu0};
    // Keeps every result observable, so no part of the work is elided.
    volatile float sink = sum + static_cast<float>(read & 0xff);
    (void)sink;
    return pass;
}

mercury::ReuseStats
statsDelta(const mercury::ReuseStats &now, const mercury::ReuseStats &before)
{
    mercury::ReuseStats d;
    d.mix.vectors = now.mix.vectors - before.mix.vectors;
    d.mix.hit = now.mix.hit - before.mix.hit;
    d.mix.mau = now.mix.mau - before.mix.mau;
    d.mix.mnu = now.mix.mnu - before.mix.mnu;
    d.macsTotal = now.macsTotal - before.macsTotal;
    d.macsSkipped = now.macsSkipped - before.macsSkipped;
    d.channelPasses = now.channelPasses - before.channelPasses;
    return d;
}

void
addStats(mercury::ReuseStats &a, const mercury::ReuseStats &b)
{
    a.mix += b.mix;
    a.macsTotal += b.macsTotal;
    a.macsSkipped += b.macsSkipped;
    a.channelPasses += b.channelPasses;
}

bool
sameStats(const mercury::ReuseStats &a, const mercury::ReuseStats &b)
{
    return a.mix.vectors == b.mix.vectors && a.mix.hit == b.mix.hit &&
           a.mix.mau == b.mix.mau && a.mix.mnu == b.mix.mnu &&
           a.macsTotal == b.macsTotal && a.macsSkipped == b.macsSkipped &&
           a.channelPasses == b.channelPasses;
}

double
meanLoss(const std::vector<float> &losses)
{
    double sum = 0.0;
    for (float l : losses)
        sum += l;
    return losses.empty() ? 0.0 : sum / static_cast<double>(losses.size());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

mercury::AcceleratorConfig
modeledAccelerator(int sig_bits, int sets, int ways, int versions,
                   int threads, bool reuse_grads)
{
    mercury::AcceleratorConfig c;
    c.initialSignatureBits = sig_bits;
    c.mcacheSets = sets;
    c.mcacheWays = ways;
    c.mcacheDataVersions = versions;
    c.pipelineThreads = threads;
    c.backwardReuse = reuse_grads;
    c.weightGradReuse = reuse_grads;
    return c;
}

mercury::HitMix
channelMix(const mercury::LayerShape &shape, const mercury::HitMix &measured)
{
    const double v = static_cast<double>(measured.vectors);
    return mercury::HitMix::fromFractions(
        shape.vectorsPerChannel(),
        ratio(static_cast<double>(measured.hit), v),
        ratio(static_cast<double>(measured.mnu), v));
}

double
stepCostUs(const mercury::sim::CostModel &model,
           const std::vector<mercury::LayerShape> &stack,
           const std::vector<mercury::HitMix> &mixes, int64_t batch,
           int sig_bits)
{
    std::vector<double> us;
    for (int i = 0; i < 101; ++i) {
        const Clock::time_point t0 = Clock::now();
        model.stepCost(stack, mixes, batch, sig_bits);
        us.push_back(secondsSince(t0) * 1e6);
    }
    return median(us);
}

} // namespace perfbench
