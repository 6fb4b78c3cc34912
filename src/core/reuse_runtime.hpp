/**
 * @file
 * ReuseRuntime: the one schedule of every reuse pass — live passes on
 * the driving thread, replays on the pool.
 *
 * MERCURY detects similarity once, then skips MACs in forward, dX, and
 * dW (§III-C, Eq. 1). Every one of those passes has the same shape:
 * read the owner map — a row that HITs an entry an earlier row of the
 * same pass installed takes that row's result (§III-C3, the "earlier
 * PE"); every other row owns itself (OwnerTable) — compute the owner
 * rows once with a dense kernel, and let HIT rows take their owner's
 * result. The detection probe resolves each pass's owner map once, into
 * the pass (SignatureRecord::Pass::owners); every live pass and every
 * replay reads it there.
 *
 * ## Live passes: RowPass
 *
 * A live pass (the forward of every engine) consumes the pass's
 * DetectionBlocks in order on the driving thread while later blocks
 * hash on the frontend's pool, if it has one (the software form of the
 * paper's Fig. 8 overlap): runRows lists each block's owner rows and
 * hands them to `computeRows` in one call per block, inline. Once the
 * stream has delivered, HIT rows copy their owner's result, with
 * adjacent forwards whose owners are also adjacent coalesced into
 * single span copies (span_batcher.hpp), and runRows hands the
 * finished pass back. Only hashing ever leaves the driving thread: a
 * pool hand-off of the computes or copies costs more than it hides on
 * a CPU. A pass's blocks come from one of two sources (StreamSource):
 *
 *  - live(rows)  — a fresh detection pass over a row population,
 *                  optionally captured into a SignatureRecord for the
 *                  backward replays (the finished pass moves in);
 *  - hashed(job) — the probe half of a pass whose hashing began
 *                  earlier with DetectionFrontend::beginHashStream (the
 *                  conv engine begins the next channel's hash job when
 *                  runRows returns, so it hashes under the scatter).
 *
 * ## Replayed passes
 *
 * dX and dW replay a recorded pass (§III-C2): the owner map is the
 * recorded pass's own, with no hashing, probing or MCACHE access, so a
 * replay is a plain function — gather through the owner map, run the
 * dense kernel. The runtime contributes only the pool: parallelRanges
 * splits disjoint work over it whenever the frontend has one.
 *
 * ## Ordering and locking contract
 *
 * One thread drives a runtime at a time (the engine's caller). Blocks
 * are delivered in ascending order on the driving thread; a block's
 * MCACHE probe (and so its owners) happens-before its delivery.
 * computeRows and copyRow run on the driving thread, concurrently
 * only with later blocks' hashing; copyRow calls run after every
 * computeRows. Outputs and statistics are bit-identical with and
 * without a pool.
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

/** Per-pass scheduler for the reuse engines. */
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
     * `computeRows(rows, count)` runs once per delivered block that
     * has owner rows, with that block's owner rows ascending; `copyRow`
     * (optional) runs for every other row after every owner has
     * computed. Both run on the driving thread. `rowSkipCost` MACs are
     * booked per forwarded row.
     */
    struct RowPass
    {
        std::function<void(const int32_t *rows, int64_t count)> computeRows;
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
        uint64_t rowSkipCost = 0;
    };

    /**
     * Run one live pass over the stream and hand back the finished
     * detection pass (outcomes, owner map, mix): the capture record's
     * newest pass when the source captures, otherwise the runtime's
     * own copy. Valid until the next runRows.
     */
    const SignatureRecord::Pass &runRows(const StreamSource &src,
                                         const RowPass &pass,
                                         ReuseStats &stats);

    /**
     * Split [0, n) into contiguous ranges, one per executor of the
     * frontend's pool (capped at n), and run fn(i0, i1) on each;
     * without a pool, fn(0, n) runs on the driving thread. Ranges must
     * write disjoint state; per-range scratch lives inside fn.
     */
    void parallelRanges(int64_t n,
                        const std::function<void(int64_t, int64_t)> &fn);

  private:
    DetectionFrontend &fe_;
    int bits_;
    PassArena arena_; ///< runRows bookkeeping; reset at every pass
    SignatureRecord::Pass last_; ///< the finished uncaptured pass

    /** Copy every forwarded row of `det` from its owner (copyRow). */
    void copyForwarded(const SignatureRecord::Pass &det,
                       const RowPass &pass);
};

// ---- Replay helpers over a recorded pass's owner map

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
Tensor ownerWeightGrad(const SignatureRecord::Pass &pass, const Tensor &a,
                       const Tensor &b, ReuseStats &stats);

} // namespace mercury

#endif // MERCURY_CORE_REUSE_RUNTIME_HPP
