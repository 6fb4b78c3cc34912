#include "core/reuse_runtime.hpp"

#include <algorithm>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace mercury {

void
parallelRanges(ThreadPool *pool, int64_t n,
               const std::function<void(int64_t, int64_t)> &fn)
{
    if (n <= 0)
        return;
    if (!pool) {
        fn(0, n);
        return;
    }
    const int64_t ranges =
        std::min<int64_t>(n, static_cast<int64_t>(pool->workers()) + 1);
    pool->parallelFor(ranges, [&](int64_t c) {
        fn(c * n / ranges, (c + 1) * n / ranges);
    });
}

Tensor
gatherOwnerRows(const Tensor &t, const SignatureRecord::Pass &pass)
{
    const int64_t cols = t.dim(1);
    Tensor out({pass.rows - pass.forwarded, cols});
    float *dst = out.data();
    for (int64_t r = 0; r < pass.rows; ++r) {
        if (pass.owner(r) != r)
            continue;
        std::copy(t.data() + r * cols, t.data() + (r + 1) * cols, dst);
        dst += cols;
    }
    return out;
}

Tensor
forwardOwnerRows(const Tensor &ownerResults,
                 const SignatureRecord::Pass &pass)
{
    const int64_t n = pass.rows;
    const int64_t cols = ownerResults.dim(1);
    Tensor out({n, cols});
    const float *next = ownerResults.data();
    for (int64_t r = 0; r < n; ++r) {
        // An owner precedes its HIT rows, so its row is already in place.
        const int64_t o = pass.owner(r);
        const float *src = o == r ? next : out.data() + o * cols;
        std::copy(src, src + cols, out.data() + r * cols);
        if (o == r)
            next += cols;
    }
    return out;
}

void
copyHitRows(Tensor &t, const SignatureRecord::Pass &pass)
{
    if (pass.forwarded == 0)
        return;
    const int64_t cols = t.dim(1);
    float *data = t.data();
    for (int64_t r = 0; r < pass.rows;) {
        const int64_t o = pass.owner(r);
        if (o == r) {
            ++r;
            continue;
        }
        // Extend the run while the next row forwards from the next
        // owner (such a row is never an owner: its owner precedes it).
        int64_t end = r + 1;
        while (end < pass.rows && pass.owner(end) == o + (end - r))
            ++end;
        kernels::ops().copySpan(data + r * cols, data + o * cols,
                                (end - r) * cols);
        r = end;
    }
}

Tensor
ownerWeightGrad(const SignatureRecord::Pass &pass, const Tensor &a,
                const Tensor &b, ReuseStats &stats)
{
    const int64_t n = pass.rows;
    const int64_t db = b.dim(1);
    const int64_t fwd = pass.forwarded;
    stats.addPass(pass, static_cast<uint64_t>(a.dim(1)) *
                            static_cast<uint64_t>(db));
    if (fwd == 0)
        return matmul(transpose2d(a), b);

    // Group sums, one row per owner (owners keep their ascending
    // order): the owner's own row is copied, HIT rows add.
    std::vector<int32_t> scratch(static_cast<size_t>(2 * n));
    Tensor sums({n - fwd, db});
    kernels::ops().groupSums(b.data(), db, pass.owners.data(), n,
                             scratch.data(), sums.data());
    return matmul(transpose2d(gatherOwnerRows(a, pass)), sums);
}

} // namespace mercury
