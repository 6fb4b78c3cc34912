#include "util/stats.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace mercury {

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        panic("geomean of empty vector");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            panic("geomean requires strictly positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        panic("mean of empty vector");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
stddev(const std::vector<double> &values)
{
    if (values.empty())
        panic("stddev of empty vector");
    const double m = mean(values);
    double acc = 0.0;
    for (double v : values)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values.size()));
}

} // namespace mercury
