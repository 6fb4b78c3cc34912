#include "core/reuse_runtime.hpp"

#include <algorithm>
#include <utility>

#include "core/kernels/kernels.hpp"
#include "core/span_batcher.hpp"
#include "tensor/ops.hpp"

namespace mercury {

void
ReuseRuntime::beginPass(int64_t rows)
{
    passPool_ = fe_.overlapEnabledFor(rows) ? fe_.workerPool() : nullptr;
}

void
ReuseRuntime::parallelRanges(
    int64_t n, const std::function<void(int64_t, int64_t)> &fn)
{
    if (n <= 0)
        return;
    if (!passPool_) {
        fn(0, n);
        return;
    }
    const int64_t ranges = std::min<int64_t>(
        n, static_cast<int64_t>(passPool_->workers()) + 1);
    passPool_->parallelFor(ranges, [&](int64_t c) {
        fn(c * n / ranges, (c + 1) * n / ranges);
    });
}

void
ReuseRuntime::runRows(const StreamSource &src, const RowPass &pass,
                      ReuseStats &stats)
{
    beginPass(src.rowCount());
    // Owner rows of each delivered block fan out to the pool while
    // later blocks hash (inline without a pool); forwarded rows are
    // copied after the joins (owners are always computed rows, so
    // forwarding chains have depth one). Bookkeeping runs on this
    // thread in stream order. All per-pass lists live in the runtime
    // arena: the computed slab is indexed by block start (each block's
    // batch is a stable slice the fanned-out task reads), and the
    // forward lists grow only on this thread.
    arena_.reset();
    const int64_t n = src.rowCount();
    int64_t *fwd_rows = arena_.indices(n);
    int64_t *fwd_owners = arena_.indices(n);
    int64_t *computed = arena_.indices(n);
    int64_t nfwd = 0;
    TaskGroup computes(passPool_);
    const BlockConsumer consume = [&](const DetectionBlock &blk) {
        int64_t *batch = computed + blk.row0;
        int64_t nc = 0;
        for (int64_t i = blk.row0; i < blk.row1; ++i) {
            const int64_t o =
                pass.ownerOf(i, blk.outcome(i), blk.entryId(i));
            if (o != i) {
                fwd_rows[nfwd] = i;
                fwd_owners[nfwd] = o;
                ++nfwd;
                stats.macsSkipped += pass.rowSkipCost;
            } else {
                batch[nc++] = i;
            }
        }
        if (nc > 0) {
            computes.run([&pass, batch, nc] {
                for (int64_t j = 0; j < nc; ++j)
                    pass.computeRow(batch[j]);
            });
        }
    };
    SignatureRecord::Pass det =
        src.job_ ? fe_.finishStream(*src.job_, consume)
                 : fe_.detectStream(*src.rows_, bits_, consume);
    if (pass.onStreamDelivered)
        pass.onStreamDelivered();
    stats.mix += det.mix;
    ++stats.channelPasses;
    if (src.capture_)
        src.capture_->append(std::move(det), fe_.dataVersions(),
                             fe_.entries());
    computes.wait();
    if (!pass.copyRow)
        return;

    // Coalesce adjacent forwards (rows and owners both stepping by
    // one) into span copies; the spans partition the forward list, so
    // span j is [starts[j], starts[j+1]).
    int64_t *starts = arena_.indices(nfwd);
    int64_t nspans = 0;
    forEachConsecutiveSpan(fwd_rows, fwd_owners, nfwd,
                           [&](int64_t i0, int64_t) {
                               starts[nspans++] = i0;
                           });
    parallelRanges(nspans, [&](int64_t j0, int64_t j1) {
        for (int64_t j = j0; j < j1; ++j) {
            const int64_t i0 = starts[j];
            const int64_t i1 = j + 1 < nspans ? starts[j + 1] : nfwd;
            if (i1 - i0 > 1 && pass.copyRowSpan) {
                pass.copyRowSpan(fwd_rows[i0], fwd_rows[i0] + (i1 - i0),
                                 fwd_owners[i0]);
            } else {
                for (int64_t i = i0; i < i1; ++i)
                    pass.copyRow(fwd_rows[i], fwd_owners[i]);
            }
        }
    });
}

Tensor
gatherOwnerRows(const Tensor &t, const std::vector<int64_t> &owner,
                int64_t owners)
{
    const int64_t cols = t.dim(1);
    Tensor out({owners, cols});
    float *dst = out.data();
    for (int64_t r = 0; r < t.dim(0); ++r) {
        if (owner[static_cast<size_t>(r)] != r)
            continue;
        std::copy(t.data() + r * cols, t.data() + (r + 1) * cols, dst);
        dst += cols;
    }
    return out;
}

Tensor
forwardOwnerRows(const Tensor &ownerResults,
                 const std::vector<int64_t> &owner)
{
    const int64_t n = static_cast<int64_t>(owner.size());
    const int64_t cols = ownerResults.dim(1);
    Tensor out({n, cols});
    const float *next = ownerResults.data();
    for (int64_t r = 0; r < n; ++r) {
        // An owner precedes its HIT rows, so its row is already in place.
        const int64_t o = owner[static_cast<size_t>(r)];
        const float *src = o == r ? next : out.data() + o * cols;
        std::copy(src, src + cols, out.data() + r * cols);
        if (o == r)
            next += cols;
    }
    return out;
}

Tensor
ownerWeightGrad(const SignatureRecord &record,
                const SignatureRecord::Pass &pass, const Tensor &a,
                const Tensor &b, ReuseStats &stats)
{
    const int64_t n = pass.rows;
    const int64_t db = b.dim(1);
    std::vector<int64_t> owner;
    OwnerTable table(record.entries());
    const int64_t fwd = record.ownersOf(pass, table, owner);
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
        const int64_t o = owner[static_cast<size_t>(r)];
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
    return matmul(transpose2d(gatherOwnerRows(a, owner, n - fwd)), sums);
}

} // namespace mercury
