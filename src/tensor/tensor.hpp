/**
 * @file
 * Minimal dense float tensor used by the functional simulator and the
 * NN training framework.
 *
 * Tensors are row-major with an explicit shape vector. Convolutional
 * activations use the (N, C, H, W) convention; fully connected
 * activations use (N, F).
 */

#ifndef MERCURY_TENSOR_TENSOR_HPP
#define MERCURY_TENSOR_TENSOR_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mercury {

class Rng;

/** Dense row-major float tensor. */
class Tensor
{
  public:
    /** Empty tensor (rank 0, no elements). */
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<int64_t> shape);

    /** Construct from shape and flat data; sizes must agree. */
    Tensor(std::vector<int64_t> shape, const std::vector<float> &data);

    /**
     * A tensor of the given shape whose elements hold no defined value
     * yet: for an op that writes every element before anything reads
     * it, so the zero-fill of Tensor(shape) is not paid twice.
     */
    static Tensor uninitialized(std::vector<int64_t> shape);

    /** Total number of elements. */
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }

    /** Tensor rank (number of dimensions). */
    int rank() const { return static_cast<int>(shape_.size()); }

    /** Size of dimension i (supports negative indices from the end). */
    int64_t dim(int i) const
    {
        const int r = rank();
        if (i < 0)
            i += r;
        if (i < 0 || i >= r)
            dimOutOfRange(i, r);
        return shape_[i];
    }

    const std::vector<int64_t> &shape() const { return shape_; }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float &operator[](int64_t i) { return data_[i]; }
    float operator[](int64_t i) const { return data_[i]; }

    /** Element access for rank-2 tensors. */
    float &at2(int64_t i, int64_t j) { return data_[i * shape_[1] + j]; }
    float at2(int64_t i, int64_t j) const
    {
        return data_[i * shape_[1] + j];
    }

    /** Element access for rank-4 (N, C, H, W) tensors. */
    float &at4(int64_t n, int64_t c, int64_t h, int64_t w)
    {
        return data_[offset4(n, c, h, w)];
    }
    float at4(int64_t n, int64_t c, int64_t h, int64_t w) const
    {
        return data_[offset4(n, c, h, w)];
    }

    /** Set every element to the given value. */
    void fill(float v);

    /** Fill with i.i.d. normal(mean, stddev) samples. */
    void fillNormal(Rng &rng, float mean = 0.0f, float stddev = 1.0f);

    /** Reshape in place; the element count must be preserved. */
    void reshape(std::vector<int64_t> shape);

    /** True when both shape and every element match exactly. */
    bool operator==(const Tensor &other) const;

    /** Max absolute elementwise difference; shapes must match. */
    float maxAbsDiff(const Tensor &other) const;

    /** Human-readable shape, e.g. "(2, 3, 8, 8)". */
    std::string shapeStr() const;

    /** Flat offset of a rank-4 index. */
    int64_t offset4(int64_t n, int64_t c, int64_t h, int64_t w) const
    {
        return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    }

  private:
    /**
     * std::allocator whose value-less construct leaves a trivial element
     * uninitialized, so a tensor that every element is about to be written
     * into skips the zero-fill; a construct with a value still copies it.
     */
    template <typename T>
    struct DefaultInitAllocator : std::allocator<T>
    {
        template <typename U>
        struct rebind
        {
            using other = DefaultInitAllocator<U>;
        };

        DefaultInitAllocator() = default;
        template <typename U>
        DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept
        {
        }

        template <typename U>
        void construct(U *p)
        {
            ::new (static_cast<void *>(p)) U;
        }
        template <typename U, typename... Args>
        void construct(U *p, Args &&...args)
        {
            ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
        }
    };

    std::vector<int64_t> shape_;
    std::vector<float, DefaultInitAllocator<float>> data_;

    static int64_t shapeNumel(const std::vector<int64_t> &shape);

    /** Out-of-line failure path of dim(), so the check stays cheap. */
    [[noreturn]] static void dimOutOfRange(int i, int r);
};

} // namespace mercury

#endif // MERCURY_TENSOR_TENSOR_HPP
