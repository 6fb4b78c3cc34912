/**
 * @file
 * ReuseRuntime: the streaming scheduler of every live reuse pass, and
 * the pool decision of every replayed one.
 *
 * MERCURY detects similarity once, then skips MACs in forward, dX, and
 * dW (§III-C, Eq. 1). Every one of those passes has the same shape:
 * resolve the owner map — a row that HITs an entry an earlier row of
 * the same pass installed takes that row's result (§III-C3, the
 * "earlier PE"); every other row owns itself (OwnerTable) — compute the
 * owner rows once with a dense kernel, and let HIT rows take their
 * owner's result.
 *
 * ## Live passes: RowPass
 *
 * A live pass (the forward of every engine) learns its owners while
 * detection streams: runRows consumes the pass's DetectionBlocks in
 * order on the driving thread, asks `ownerOf` for each row, and fans
 * each block's owner rows out through a TaskGroup while later blocks
 * still hash (the paper's Fig. 8 pipeline). Once every owner has
 * computed, HIT rows copy their owner's result, with adjacent forwards
 * whose owners are also adjacent coalesced into single span copies
 * (span_batcher.hpp). A pass's blocks come from one of two sources
 * (StreamSource):
 *
 *  - live(rows)  — a fresh detection pass over a row population,
 *                  optionally captured into a SignatureRecord for the
 *                  backward replays (the finished pass moves in);
 *  - hashed(job) — the probe half of a pass whose hashing began
 *                  earlier with DetectionFrontend::beginHashStream (the
 *                  conv engine's cross-channel overlap: onStreamDelivered
 *                  starts the next pass's hash job before this pass's
 *                  computes join).
 *
 * ## Replayed passes
 *
 * dX and dW replay a recorded pass (§III-C2): the owner map comes from
 * the record (SignatureRecord::ownersOf) with no hashing, probing or
 * MCACHE access, so a replay is a plain function — gather through the
 * owner map, run the dense kernel. The runtime contributes only the
 * pool: beginPass resolves whether a pass of that size gets it, and
 * parallelRanges splits disjoint work over it.
 *
 * ## Ordering and locking contract
 *
 * One thread drives a runtime at a time (the engine's caller). Blocks
 * are delivered in ascending order on the driving thread; a block's
 * MCACHE probe happens-before its delivery, and `ownerOf` runs there,
 * in stream order. computeRow calls run concurrently with each other
 * and with later blocks' hashing; each writes its own row. copyRow
 * calls run after every computeRow has joined. Outputs and statistics
 * are bit-identical with and without a pool.
 */

#ifndef MERCURY_CORE_REUSE_RUNTIME_HPP
#define MERCURY_CORE_REUSE_RUNTIME_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pass_arena.hpp"
#include "pipeline/detection_frontend.hpp"
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

    /** Book one replayed pass: its recorded mix, one detection pass. */
    void addReplayedPass(const SignatureRecord::Pass &pass)
    {
        mix += pass.mix;
        ++channelPasses;
    }
};

/** Per-pass streaming scheduler for the reuse engines. */
class ReuseRuntime
{
  public:
    /**
     * @param fe   the engine's detection front-end
     * @param bits signature length of live detection passes
     */
    ReuseRuntime(DetectionFrontend &fe, int bits)
        : fe_(fe)
        , bits_(bits)
    {
    }

    ReuseRuntime(const ReuseRuntime &) = delete;
    ReuseRuntime &operator=(const ReuseRuntime &) = delete;

    /** Where the blocks of one live pass come from. */
    class StreamSource
    {
      public:
        /** Fresh detection pass over `rows`, optionally captured. */
        static StreamSource live(const Tensor &rows,
                                 SignatureRecord *capture = nullptr)
        {
            StreamSource s;
            s.rows_ = &rows;
            s.capture_ = capture;
            return s;
        }

        /** Probe half of a pass begun with beginHashStream. */
        static StreamSource hashed(DetectionHashJob &job,
                                   SignatureRecord *capture = nullptr)
        {
            StreamSource s;
            s.job_ = &job;
            s.capture_ = capture;
            return s;
        }

        /** Rows the stream will deliver. */
        int64_t rowCount() const
        {
            return job_ ? job_->rowCount() : rows_->dim(0);
        }

      private:
        friend class ReuseRuntime;
        StreamSource() = default;

        const Tensor *rows_ = nullptr;
        DetectionHashJob *job_ = nullptr;
        SignatureRecord *capture_ = nullptr;
    };

    /**
     * One live pass (§III-C3 result forwarding).
     *
     * `ownerOf(row, outcome, entry)` runs on the driving thread in
     * stream order and returns the row whose result this row takes
     * (the row itself to compute) — the engine applies OwnerTable's
     * rule, whose ownerOf has this signature, here.
     * `computeRow` runs once per owner row, possibly concurrently
     * across rows; `copyRow` (optional) runs for every other row after
     * every owner has computed. `rowSkipCost` MACs are booked per
     * forwarded row.
     */
    struct RowPass
    {
        std::function<int64_t(int64_t row, McacheOutcome outcome,
                              int64_t entry)>
            ownerOf;
        std::function<void(int64_t row)> computeRow;
        std::function<void(int64_t row, int64_t owner)> copyRow;
        /**
         * Optional span form of copyRow: copy rows [row0, row1) from
         * owners [owner0, owner0 + (row1 - row0)) in one move. The
         * scheduler coalesces adjacent forwards whose rows and owners
         * both step by one (see span_batcher.hpp — such ranges never
         * overlap) and calls this instead of per-row copies.
         */
        std::function<void(int64_t row0, int64_t row1, int64_t owner0)>
            copyRowSpan;
        /**
         * Optional: runs once the stream has fully delivered, before
         * the owner computes are joined — the conv engine begins the
         * next channel pass's hashing here.
         */
        std::function<void()> onStreamDelivered;
        uint64_t rowSkipCost = 0;
    };

    /**
     * Give the coming pass over `rows` rows the worker pool iff it
     * resolves overlapped (the frontend's mode; Auto resolves from
     * threads x rows); otherwise it runs inline. runRows calls this
     * itself; replays call it before fanning out.
     */
    void beginPass(int64_t rows);

    /** Run one live pass over the stream. */
    void runRows(const StreamSource &src, const RowPass &pass,
                 ReuseStats &stats);

    /**
     * Split [0, n) into contiguous ranges, one per executor of the
     * pass's pool (capped at n), and run fn(i0, i1) on each; without a
     * pool, fn(0, n) runs on the driving thread. Ranges must write
     * disjoint state; per-range scratch lives inside fn.
     */
    void parallelRanges(int64_t n,
                        const std::function<void(int64_t, int64_t)> &fn);

  private:
    DetectionFrontend &fe_;
    int bits_;
    /// Pool of the pass in flight (beginPass resolves it per rows).
    ThreadPool *passPool_ = nullptr;
    PassArena arena_; ///< runRows bookkeeping; reset at every pass
};

// ---- Replay helpers over an owner map (owner[r] == r for owner rows)

/** The `owners` owner rows of `t`, ascending, as a (owners, cols) tensor. */
Tensor gatherOwnerRows(const Tensor &t, const std::vector<int64_t> &owner,
                       int64_t owners);

/**
 * Every row's result from the owner rows' results (ascending, as
 * gatherOwnerRows orders them): owner rows take theirs, HIT rows copy
 * their owner's.
 */
Tensor forwardOwnerRows(const Tensor &ownerResults,
                        const std::vector<int64_t> &owner);

/**
 * Weight-gradient replay of one recorded pass (§III-C2 applied to
 * Eq. 1): At B — the dW-shaped reduction over the pass's rows — with
 * every forward-HIT row factored through its owner (sum-then-multiply).
 * Each owner's b-row group sum starts as a copy of its own row and HIT
 * rows add theirs in stream order; then matmul(transpose2d(a_owners),
 * groupSums) runs one multiply per group, owners ascending, with
 * matmul's zero skip — so a zero-hit replay is
 * matmul(transpose2d(a), b) bit for bit. Books da x db skipped MACs per
 * HIT row, and the pass's mix.
 */
Tensor ownerWeightGrad(const SignatureRecord &record,
                       const SignatureRecord::Pass &pass, const Tensor &a,
                       const Tensor &b, ReuseStats &stats);

} // namespace mercury

#endif // MERCURY_CORE_REUSE_RUNTIME_HPP
