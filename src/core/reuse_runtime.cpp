#include "core/reuse_runtime.hpp"

#include <algorithm>
#include <utility>

#include "core/kernels/kernels.hpp"
#include "core/span_batcher.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

void
ReuseRuntime::parallelRanges(
    int64_t n, const std::function<void(int64_t, int64_t)> &fn)
{
    if (n <= 0)
        return;
    ThreadPool *pool = fe_.workerPool();
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

const SignatureRecord::Pass &
ReuseRuntime::runRows(const StreamSource &src, const RowPass &pass,
                      ReuseStats &stats)
{
    // Owner rows of each delivered block go to computeRows in one call,
    // on this thread, while later blocks hash on the pool. Forwarded
    // rows are copied once the stream has delivered (owners are always
    // computed rows, so forwarding chains have depth one). The owner
    // lists live in the runtime arena, indexed by block start.
    arena_.reset();
    int32_t *computed = arena_.rows(src.rowCount());
    const BlockConsumer consume = [&](const DetectionBlock &blk) {
        int32_t *batch = computed + blk.row0;
        int64_t nc = 0;
        for (int64_t i = blk.row0; i < blk.row1; ++i)
            if (blk.owner(i) == i)
                batch[nc++] = static_cast<int32_t>(i);
        if (nc > 0)
            pass.computeRows(batch, nc);
    };
    SignatureRecord::Pass det =
        src.job_ ? fe_.finishStream(*src.job_, consume)
                 : fe_.detectStream(*src.rows_, bits_, consume);
    stats.mix += det.mix;
    ++stats.channelPasses;
    stats.macsSkipped +=
        static_cast<uint64_t>(det.forwarded) * pass.rowSkipCost;
    const SignatureRecord::Pass *done = &last_;
    if (src.capture_) {
        src.capture_->append(std::move(det), fe_.dataVersions(),
                             fe_.entries());
        done = &src.capture_->pass(src.capture_->passCount() - 1);
    } else {
        last_ = std::move(det);
    }
    if (pass.copyRow)
        copyForwarded(*done, pass);
    return *done;
}

void
ReuseRuntime::copyForwarded(const SignatureRecord::Pass &det,
                            const RowPass &pass)
{
    // Coalesce adjacent forwards (rows and owners both stepping by
    // one) into span copies.
    const int64_t nfwd = det.forwarded;
    int64_t *fwd_rows = arena_.indices(nfwd);
    int64_t *fwd_owners = arena_.indices(nfwd);
    for (int64_t i = 0, k = 0; k < nfwd; ++i) {
        if (det.owner(i) != i) {
            fwd_rows[k] = i;
            fwd_owners[k++] = det.owner(i);
        }
    }
    forEachConsecutiveSpan(
        fwd_rows, fwd_owners, nfwd, [&](int64_t i0, int64_t i1) {
            if (i1 - i0 > 1 && pass.copyRowSpan) {
                pass.copyRowSpan(fwd_rows[i0], fwd_rows[i0] + (i1 - i0),
                                 fwd_owners[i0]);
            } else {
                for (int64_t i = i0; i < i1; ++i)
                    pass.copyRow(fwd_rows[i], fwd_owners[i]);
            }
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

Tensor
ownerWeightGrad(const SignatureRecord::Pass &pass, const Tensor &a,
                const Tensor &b, ReuseStats &stats)
{
    const int64_t n = pass.rows;
    const int64_t db = b.dim(1);
    const int64_t fwd = pass.forwarded;
    stats.macsSkipped += static_cast<uint64_t>(fwd) *
                         static_cast<uint64_t>(a.dim(1)) *
                         static_cast<uint64_t>(db);
    stats.addReplayedPass(pass);
    if (fwd == 0)
        return matmul(transpose2d(a), b);

    // Group sums in stream order, one row per owner (owners keep their
    // ascending order): the owner's own row is copied, HIT rows add.
    std::vector<int64_t> slot(static_cast<size_t>(n));
    Tensor sums({n - fwd, db});
    int64_t u = 0;
    for (int64_t r = 0; r < n; ++r) {
        const int64_t o = pass.owner(r);
        const float *src = b.data() + r * db;
        if (o == r) {
            slot[static_cast<size_t>(r)] = u;
            std::copy(src, src + db, sums.data() + u * db);
            ++u;
        } else {
            kernels::ops().addSpan(
                sums.data() + slot[static_cast<size_t>(o)] * db, src, db);
        }
    }
    return matmul(transpose2d(gatherOwnerRows(a, pass)), sums);
}

} // namespace mercury
