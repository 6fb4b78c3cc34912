/**
 * @file
 * The shape every reuse pass shares, as plain functions over a
 * finished detection pass.
 *
 * MERCURY detects similarity once, then skips MACs in forward, dX, and
 * dW (§III-C, Eq. 1). Every one of those passes has the same shape:
 * read the owner map — a row that HITs an entry an earlier row of the
 * same pass installed takes that row's result (§III-C3, the "earlier
 * PE"); every other row owns itself (OwnerTable) — compute the owner
 * rows once with a dense kernel, and let HIT rows take their owner's
 * result. The detection probe resolves each pass's owner map once, into
 * the pass (SignatureRecord::Pass::owners).
 *
 * A forward (live pass) first runs detection to the end — the
 * frontend's detect, or the two halves beginHashStream/finishStream,
 * which hash on the frontend's pool while the driving thread probes —
 * then computes the owner rows and copies the HIT rows (copyHitRows).
 * A replay (dX, dW) reads a recorded pass (§III-C2) with no hashing,
 * probing or MCACHE access: gather through the owner map, run the
 * dense kernel. Replays fan disjoint work out over the frontend's pool
 * with parallelRanges. Outputs and statistics are bit-identical with
 * and without a pool.
 */

#ifndef MERCURY_CORE_REUSE_RUNTIME_HPP
#define MERCURY_CORE_REUSE_RUNTIME_HPP

#include <cstdint>
#include <functional>

#include "pipeline/signature_record.hpp"
#include "sim/dataflow.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Aggregated statistics of one reuse-enabled layer pass. */
struct ReuseStats
{
    HitMix mix;                ///< summed over all detection passes
    uint64_t macsTotal = 0;    ///< baseline MAC count
    uint64_t macsSkipped = 0;  ///< MACs avoided through reuse
    int64_t channelPasses = 0; ///< number of detection passes run

    double skipFraction() const
    {
        return macsTotal
                   ? static_cast<double>(macsSkipped) /
                         static_cast<double>(macsTotal)
                   : 0.0;
    }

    /**
     * Book one pass, live or replayed: its mix, one detection pass,
     * and `row_macs` skipped MACs per forwarded row.
     */
    void addPass(const SignatureRecord::Pass &pass, uint64_t row_macs)
    {
        mix += pass.mix;
        ++channelPasses;
        macsSkipped += static_cast<uint64_t>(pass.forwarded) * row_macs;
    }
};

/**
 * Split [0, n) into contiguous ranges, one per executor of `pool`
 * (its workers plus the calling thread, capped at n), and run
 * fn(i0, i1) on each; with a null pool, fn(0, n) runs on the calling
 * thread. Ranges must write disjoint state; per-range scratch lives
 * inside fn.
 */
void parallelRanges(ThreadPool *pool, int64_t n,
                    const std::function<void(int64_t, int64_t)> &fn);

/** The owner rows of `t`, ascending, as a (owners, cols) tensor. */
Tensor gatherOwnerRows(const Tensor &t, const SignatureRecord::Pass &pass);

/**
 * Every row's result from the owner rows' results (ascending, as
 * gatherOwnerRows orders them): owner rows take theirs, HIT rows copy
 * their owner's.
 */
Tensor forwardOwnerRows(const Tensor &ownerResults,
                        const SignatureRecord::Pass &pass);

/**
 * In place: every forwarded row of the (rows, cols) tensor `t` takes
 * a copy of its owner's row, which must already hold its result. A
 * run of consecutive forwarded rows whose owners are consecutive too
 * moves as one copySpan; owners are rows that compute and precede
 * their HIT rows, so the two ranges never overlap. Owner rows are not
 * touched.
 */
void copyHitRows(Tensor &t, const SignatureRecord::Pass &pass);

/**
 * Weight-gradient replay of one recorded pass (§III-C2 applied to
 * Eq. 1): At B — the dW-shaped reduction over the pass's rows — with
 * every forward-HIT row factored through its owner (sum-then-multiply).
 * Each owner's b-row group sum starts as a copy of its own row and HIT
 * rows add theirs in stream order (the kernel table's groupSums, one
 * call); then matmul(transpose2d(a_owners),
 * groupSums) runs one multiply per group, owners ascending, with
 * matmul's zero skip — so a zero-hit replay is
 * matmul(transpose2d(a), b) bit for bit. Books the pass with da x db
 * skipped MACs per HIT row.
 */
Tensor ownerWeightGrad(const SignatureRecord::Pass &pass, const Tensor &a,
                       const Tensor &b, ReuseStats &stats);

} // namespace mercury

#endif // MERCURY_CORE_REUSE_RUNTIME_HPP
