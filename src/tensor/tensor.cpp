#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mercury {

int64_t
Tensor::shapeNumel(const std::vector<int64_t> &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        if (d < 0)
            panic("negative tensor dimension ", d);
        n *= d;
    }
    return n;
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    if (shapeNumel(shape_) != static_cast<int64_t>(data_.size()))
        panic("tensor shape/data mismatch: shape wants ",
              shapeNumel(shape_), " elements, data has ", data_.size());
}

void
Tensor::dimOutOfRange(int i, int r)
{
    panic("tensor dim index ", i, " out of range for rank ", r);
}

void
Tensor::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

void
Tensor::fillNormal(Rng &rng, float mean, float stddev)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.normal(mean, stddev));
}

void
Tensor::reshape(std::vector<int64_t> shape)
{
    if (shapeNumel(shape) != numel())
        panic("reshape changes element count: ", numel(), " -> ",
              shapeNumel(shape));
    shape_ = std::move(shape);
}

bool
Tensor::operator==(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

float
Tensor::maxAbsDiff(const Tensor &other) const
{
    if (shape_ != other.shape_)
        panic("maxAbsDiff shape mismatch: ", shapeStr(), " vs ",
              other.shapeStr());
    float m = 0.0f;
    for (size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::fabs(data_[i] - other.data_[i]));
    return m;
}

std::string
Tensor::shapeStr() const
{
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < shape_.size(); ++i) {
        if (i)
            os << ", ";
        os << shape_[i];
    }
    os << ")";
    return os.str();
}

} // namespace mercury
