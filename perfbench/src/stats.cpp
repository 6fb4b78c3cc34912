#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

size_t
nearestRank(double p, size_t n)
{
    if (n == 0)
        return 0;
    // The small epsilon keeps exact products such as 0.9 * 100 from
    // rounding up to the next rank through binary representation.
    const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

size_t
samplesBeyond(double p, size_t n)
{
    return n - nearestRank(p, n);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of an empty sample");
    const size_t k = nearestRank(p, samples.size()) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

double
tailLevel(size_t n)
{
    double best = 0.0;
    for (const double p : {0.90, 0.95, 0.99, 0.999})
        if (samplesBeyond(p, n) >= kTailSamplesBeyond)
            best = p;
    return best;
}

const char *
tailName(double level)
{
    if (level >= 0.999)
        return "p99.9";
    if (level >= 0.99)
        return "p99";
    if (level >= 0.95)
        return "p95";
    if (level >= 0.90)
        return "p90";
    return "none";
}

std::vector<double>
hostNormalized(const std::vector<double> &samples,
               const std::vector<double> &ref, double nominal)
{
    if (ref.size() != samples.size() + 1)
        throw std::invalid_argument(
            "hostNormalized needs one reference pass more than samples");
    std::vector<double> out;
    out.reserve(samples.size());
    for (size_t i = 0; i < samples.size(); ++i)
        out.push_back(samples[i] * nominal * 2.0 / (ref[i] + ref[i + 1]));
    return out;
}

} // namespace perfbench
