#include "core/reuse_runtime.hpp"

#include <algorithm>
#include <memory>

#include "core/kernels/kernels.hpp"
#include "core/span_batcher.hpp"

namespace mercury {

DetectionResult
ReuseRuntime::deliver(const StreamSource &src, const BlockConsumer &cb)
{
    if (src.job_)
        return fe_.finishStream(*src.job_, cb, src.capture_);
    if (src.rows_)
        return fe_.detectStream(*src.rows_, bits_, cb, src.capture_);
    // Replay (§III-C2): the consumers read their owners from the
    // record, so a replayed block is a bare row range — no outcomes,
    // no hashing, no MCACHE access. Inline the pass is one block; on
    // a pool, blocks of the pass's resolved size are the fan-out
    // granularity of the consumer chains.
    const int64_t n = src.pass_->rows;
    const int64_t step = passPool_ ? fe_.resolvedPipeFor(n).blockRows : n;
    DetectionBlock blk;
    for (int64_t r0 = 0; r0 < n; r0 += step, ++blk.index) {
        blk.row0 = r0;
        blk.row1 = std::min(n, r0 + step);
        cb(blk);
    }
    return DetectionResult();
}

void
ReuseRuntime::beginPass(const StreamSource &src)
{
    passPool_ =
        fe_.overlapEnabledFor(src.rowCount()) ? fe_.workerPool() : nullptr;
}

void
ReuseRuntime::addPassStats(const StreamSource &src,
                           const DetectionResult &det, ReuseStats &stats)
{
    stats.mix += src.isReplay() ? src.pass_->mix : det.mix();
    ++stats.channelPasses;
}

void
ReuseRuntime::parallelChains(int64_t width,
                             const std::function<void(int64_t)> &fn)
{
    if (ThreadPool *p = pool()) {
        p->parallelFor(width, fn);
        return;
    }
    for (int64_t i = 0; i < width; ++i)
        fn(i);
}

void
ReuseRuntime::runFilterPasses(const StreamSource &src,
                              const FilterPassSet &set, ReuseStats &stats)
{
    beginPass(src);
    // The first in-flight group consumes the stream. Each serial chain
    // owns a contiguous RANGE of the group's filters: every block of a
    // filter flows through one chain in delivery order (owner-before-
    // hit within a filter), distinct chains run in parallel, and later
    // blocks still hash. Chain width is capped at the pool's executor
    // count — more chains than executors cannot add parallelism, only
    // task churn (the in-flight group can be as wide as every filter
    // of the pass when the engine's per-filter state allows it).
    // Without a pool there is one chain, run inline.
    const int64_t group0 = std::min<int64_t>(set.inFlight, set.filters);
    const int64_t nchains =
        passPool_ ? std::min<int64_t>(
                        group0,
                        static_cast<int64_t>(passPool_->workers()) + 1)
                  : 1;
    const bool live = !src.isReplay();
    // Sized once, before any block is delivered — the callbacks below
    // only write elements in place (capacity persists across passes,
    // so steady state never reallocates).
    if (live)
        rowResults_.resize(static_cast<size_t>(src.rowCount()));

    DetectionResult det;
    if (nchains == 1) {
        // A single consumer chain cannot run in parallel with itself:
        // its tasks would execute the same segments in the same
        // delivery order the callback runs in, so chaining buys
        // nothing and pays a task hand-off per block (the
        // depthwise-dW wall collapse: 1 filter group per pass, every
        // block a round trip through the pool). Run the range inline
        // in the delivery callback — identical segment order, zero
        // scheduling.
        uint64_t s = 0;
        det = deliver(src, [&](const DetectionBlock &blk) {
            if (live) {
                std::copy(blk.results, blk.results + blk.rows(),
                          rowResults_.begin() + blk.row0);
            }
            for (int64_t f = 0; f < group0; ++f)
                s += set.segment(f, blk.row0, blk.row1);
        });
        stats.macsSkipped += s;
        if (set.onStreamDelivered)
            set.onStreamDelivered();
    } else {
        // The consumer chains are runtime members reused across
        // channel passes; a drained SerialExecutor is safely re-armed
        // by its next run().
        while (static_cast<int64_t>(chains_.size()) < nchains)
            chains_.push_back(std::make_unique<SerialExecutor>(passPool_));
        std::vector<uint64_t> skipped(static_cast<size_t>(nchains), 0);
        det = deliver(src, [&](const DetectionBlock &blk) {
            if (live) {
                // The block's result pointers die with the callback;
                // copy into runtime-owned storage the chains can read
                // asynchronously.
                std::copy(blk.results, blk.results + blk.rows(),
                          rowResults_.begin() + blk.row0);
            }
            for (int64_t c = 0; c < nchains; ++c) {
                const int64_t f0 = c * group0 / nchains;
                const int64_t f1 = (c + 1) * group0 / nchains;
                chains_[static_cast<size_t>(c)]->run(
                    [&set, &skipped, c, f0, f1, r0 = blk.row0,
                     r1 = blk.row1] {
                        uint64_t s = 0;
                        for (int64_t f = f0; f < f1; ++f)
                            s += set.segment(f, r0, r1);
                        skipped[static_cast<size_t>(c)] += s;
                    });
            }
        });
        // Cross-channel overlap window: the stream has delivered but
        // the chains may still be draining.
        if (set.onStreamDelivered)
            set.onStreamDelivered();
        for (int64_t c = 0; c < nchains; ++c)
            chains_[static_cast<size_t>(c)]->wait();
        for (const uint64_t s : skipped)
            stats.macsSkipped += s;
    }
    if (set.afterGroup)
        set.afterGroup(0, group0);

    // Remaining groups run whole-range: the stream has drained, so
    // every filter covers rows [0, rows) in one segment; filters of a
    // group fan out over the pool (each is a whole-row-range chain,
    // so the owner-before-hit order within a filter still holds).
    for (int64_t f0 = group0; f0 < set.filters; f0 += set.inFlight) {
        const int64_t f1 =
            std::min<int64_t>(f0 + set.inFlight, set.filters);
        std::vector<uint64_t> skipped(static_cast<size_t>(f1 - f0), 0);
        parallelChains(f1 - f0, [&](int64_t i) {
            skipped[static_cast<size_t>(i)] =
                set.segment(f0 + i, 0, set.rows);
        });
        for (const uint64_t s : skipped)
            stats.macsSkipped += s;
        if (set.afterGroup)
            set.afterGroup(f0, f1);
    }

    addPassStats(src, det, stats);
}

void
ReuseRuntime::runRows(const StreamSource &src, const RowPass &pass,
                      ReuseStats &stats)
{
    beginPass(src);
    // Computed rows of each delivered block fan out to the pool while
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
    const DetectionResult det = deliver(src, [&](const DetectionBlock &blk) {
        int64_t *batch = computed + blk.row0;
        int64_t nc = 0;
        for (int64_t i = blk.row0; i < blk.row1; ++i) {
            // Replayed blocks carry no outcomes: their owners come
            // from the record.
            const int64_t o = pass.ownerOf(
                i, blk.results ? blk.results[i - blk.row0] : McacheResult{});
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
    });
    computes.wait();
    // Coalesce adjacent forwards (rows and owners both stepping by
    // one) into span copies; the spans partition the forward list, so
    // span j is [starts[j], starts[j+1]).
    int64_t *starts = arena_.indices(nfwd);
    int64_t nspans = 0;
    forEachConsecutiveSpan(fwd_rows, fwd_owners, nfwd,
                           [&](int64_t i0, int64_t) {
                               starts[nspans++] = i0;
                           });
    parallelChains(nspans, [&](int64_t j) {
        const int64_t i0 = starts[j];
        const int64_t i1 = j + 1 < nspans ? starts[j + 1] : nfwd;
        if (i1 - i0 > 1 && pass.copyRowSpan) {
            pass.copyRowSpan(fwd_rows[i0], fwd_rows[i0] + (i1 - i0),
                             fwd_owners[i0]);
        } else {
            for (int64_t i = i0; i < i1; ++i)
                pass.copyRow(fwd_rows[i], fwd_owners[i]);
        }
    });

    addPassStats(src, det, stats);
}

void
ReuseRuntime::runScan(const StreamSource &src, const ScanPass &pass,
                      ReuseStats &stats)
{
    beginPass(src);
    // The scan consumes the stream on the driving thread — no block is
    // independent of the ones before it — then the finish items fan
    // out, one disjoint slice per task.
    const DetectionResult det = deliver(
        src, [&](const DetectionBlock &blk) { pass.scan(blk.row0, blk.row1); });
    parallelChains(pass.finishItems, pass.finishItem);

    addPassStats(src, det, stats);
}

Tensor
weightGradReplay(ReuseRuntime &rt, const SignatureRecord &record,
                 const SignatureRecord::Pass &pass, const Tensor &a,
                 const Tensor &b, ReuseStats &stats)
{
    const int64_t n = pass.rows;
    const int64_t da = a.dim(1);
    const int64_t db = b.dim(1);
    std::vector<int64_t> owner;
    record.ownersOf(pass, owner);

    // Group sums over the pass's b-rows: the owner slot starts as a
    // copy of its own row (bit-exact for singleton groups), HIT rows
    // fold in with adds. Stream order guarantees the owner's copy
    // lands before any of its hits accumulate. The buffer comes from
    // the runtime's scratch arena (no per-pass allocation); owner
    // slots are always copy-initialized before any read and
    // non-owner slots are never read, so it needs no zero fill.
    rt.scratch().reset();
    float *gsum = rt.scratch().floats(n * db);
    Tensor out({da, db});
    const kernels::KernelOps &k = kernels::ops();

    ReuseRuntime::ScanPass scan;
    scan.scan = [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t o = owner[static_cast<size_t>(r)];
            float *dst = gsum + o * db;
            const float *src = b.data() + r * db;
            if (o == r) {
                k.copySpan(dst, src, db);
            } else {
                k.addSpan(dst, src, db);
                stats.macsSkipped += static_cast<uint64_t>(da) *
                                     static_cast<uint64_t>(db);
            }
        }
    };
    // One output row j of At B: one multiply per group, owners
    // ascending — the same contraction order (and zero-skip) as
    // matmul(transpose2d(a), b) walks for row j.
    scan.finishItems = da;
    scan.finishItem = [&](int64_t j) {
        float *oj = out.data() + j * db;
        for (int64_t r = 0; r < n; ++r) {
            if (owner[static_cast<size_t>(r)] != r)
                continue;
            const float av = a.at2(r, j);
            if (av == 0.0f)
                continue;
            k.axpy(oj, av, gsum + r * db, db);
        }
    };

    rt.runScan(ReuseRuntime::StreamSource::replay(pass), scan, stats);
    return out;
}

} // namespace mercury
