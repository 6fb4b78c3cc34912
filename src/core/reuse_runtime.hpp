/**
 * @file
 * ReuseRuntime: the one streaming scheduler every reuse pass runs on.
 *
 * MERCURY's loop — detect similarity once, then skip MACs in forward,
 * dX, and dW (§III-C, Eq. 1) — used to be scheduled three times over:
 * ConvReuseEngine, FcEngine, and AttentionEngine each hand-rolled
 * stream consumption, owner-before-hit ordering, SerialExecutor /
 * TaskGroup plumbing, and the serial-vs-overlapped fork for each of
 * their three passes — nine near-duplicate scheduling paths. The
 * runtime factors that machinery out: an engine now states *what* a
 * pass does (a declarative pass descriptor of row gather / owner
 * compute / hit scatter / group-accumulate callbacks) and the runtime
 * decides *how* it runs, with the ordering contracts stated exactly
 * once, here.
 *
 * There is one schedule (the paper's Fig. 8 pipeline): every pass
 * consumes a stream of DetectionBlocks. The only per-pass decision is
 * whether the pass gets the worker pool — OverlapMode resolves it
 * from the pass's row count. Without a pool the same schedule runs
 * inline on the driving thread: one consumer chain, computed rows and
 * fan-outs executed in place.
 *
 * ## Stream sources
 *
 * Every pass consumes one stream of DetectionBlocks, from one of
 * three sources (StreamSource):
 *
 *  - live(rows)   — a fresh detection pass over a row population
 *                   (forward passes; optionally captured into a
 *                   SignatureRecord for later replay);
 *  - hashed(job)  — the probe half of a pass whose hashing was begun
 *                   earlier with DetectionFrontend::beginHashStream
 *                   (the conv engine's cross-channel overlap);
 *  - replay(pass) — a recorded pass re-delivered as bare row ranges,
 *                   with zero hashing or probing cycles and no MCACHE
 *                   access (§III-C2; the backward and weight-gradient
 *                   passes read their owners from the record). Inline
 *                   the pass is one block; on a pool, blocks of the
 *                   pass's resolved blockRows.
 *
 * ## Pass descriptors
 *
 * Three descriptor shapes cover every reuse pass in the system:
 *
 *  - FilterPassSet — `filters` filter passes over the stream's rows,
 *    `inFlight` at a time (the multi-version MCACHE data of Fig. 11).
 *    The first in-flight group consumes the stream: one SerialExecutor
 *    chain per filter receives every block in delivery order, so each
 *    filter sees its rows in stream order (the MCACHE
 *    owner-writes-before-hit-reads discipline) while distinct filters
 *    run in parallel. Remaining groups run whole-range (fanned out on
 *    the pool, if the pass has one) after the stream drains. Conv
 *    forward / backwardInput / backwardWeights are FilterPassSets.
 *
 *  - RowPass — row-granular result forwarding (§III-C3): stream-order
 *    owner bookkeeping on the driving thread decides per row whether
 *    it computes or copies its owner's result. Computed rows are
 *    mutually independent and fan out through a TaskGroup while later
 *    blocks still hash; copies run after the joins (owners are always
 *    computed rows, so forwarding chains have depth one), with
 *    adjacent forwards whose owners are also adjacent coalesced into
 *    single span copies (span_batcher.hpp, RowPass::copyRowSpan). FC
 *    and attention forward, and both of their input-gradient replays,
 *    are RowPasses.
 *
 *  - ScanPass — an ordered scan over the stream on the driving thread
 *    (per-owner group accumulation, §III-C2 sum-then-multiply),
 *    followed by an optional parallel finish fan-out (the per-group
 *    outer products). The weight-gradient replays of FC and attention
 *    are ScanPasses, via weightGradReplay below.
 *
 * ## Ordering and locking contract (stated once, relied on by all)
 *
 * One thread drives a runtime pass at a time (the engine's caller).
 * Blocks are delivered in ascending order on the driving thread; a
 * block's MCACHE probe happens-before its delivery. Chained segments
 * of one filter run in delivery order and never concurrently with
 * each other; segments of different filters, and computed-row tasks,
 * run concurrently on the pool. Conv-forward HIT forwarding runs on
 * the runtime's arena-backed PassDataPlane, where the per-filter
 * version-slot discipline makes unsynchronized access race-free (see
 * pass_arena.hpp). Block result pointers die when the delivery
 * callback returns — the runtime copies them into rowResults() before
 * any chain task can run.
 * Replay sources never touch the MCACHE at all. Outputs and
 * statistics are bit-identical with and without a pool.
 */

#ifndef MERCURY_CORE_REUSE_RUNTIME_HPP
#define MERCURY_CORE_REUSE_RUNTIME_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/pass_arena.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/signature_record.hpp"
#include "sim/dataflow.hpp"
#include "tensor/tensor.hpp"
#include "util/executors.hpp"
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

    /** Where the blocks of one scheduled pass come from. */
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

        /** Replay of a recorded pass (§III-C2; no MCACHE access). */
        static StreamSource replay(const SignatureRecord::Pass &pass)
        {
            StreamSource s;
            s.pass_ = &pass;
            return s;
        }

        bool isReplay() const { return pass_ != nullptr; }

        /** Rows the stream will deliver. */
        int64_t rowCount() const
        {
            if (pass_)
                return pass_->rows;
            if (job_)
                return job_->rowCount();
            return rows_->dim(0);
        }

      private:
        friend class ReuseRuntime;
        StreamSource() = default;

        const Tensor *rows_ = nullptr;
        DetectionHashJob *job_ = nullptr;
        const SignatureRecord::Pass *pass_ = nullptr;
        SignatureRecord *capture_ = nullptr;
    };

    /**
     * Chained filter passes over one stream (conv-style).
     *
     * `segment(f, r0, r1)` processes rows [r0, r1) of filter pass `f`
     * and returns the MACs it skipped. Within one filter, segments
     * arrive in stream order and never overlap; the data slot a
     * filter may use (MCACHE version / scratch-buffer index) is
     * `f % inFlight`, constant across the filter's whole row range.
     *
     * `afterGroup(f0, f1)` runs on the driving thread after a group's
     * segments have completed and their skip counts were folded into
     * the stats — the ordered scatter of backwardInput and the
     * per-group outer products of backwardWeights live here (the
     * callback may fan out again via parallelChains).
     *
     * `onStreamDelivered` runs once the stream has fully delivered
     * but before the in-flight chains are joined: the cross-channel
     * overlap window, where the conv engine extracts and begins
     * hashing the next channel while this one's chains drain.
     */
    struct FilterPassSet
    {
        int64_t rows = 0;     ///< rows of the stream
        int64_t filters = 0;  ///< total filter passes
        int64_t inFlight = 1; ///< filters per group (data versions)
        std::function<uint64_t(int64_t f, int64_t r0, int64_t r1)> segment;
        std::function<void(int64_t f0, int64_t f1)> afterGroup;
        std::function<void()> onStreamDelivered;
    };

    /**
     * Row-forwarding pass (FC / attention style, §III-C3).
     *
     * `ownerOf(row, res)` runs on the driving thread in stream order
     * and returns the row whose result this row forwards (the row
     * itself to compute) — live passes do their owner-of-entry
     * bookkeeping here; replays read the record's owner map (`res` is
     * default-constructed for replays). `computeRow` runs once
     * per computed row, possibly concurrently across rows; `copyRow`
     * runs after every owner has computed. Each row is written by
     * exactly one invocation, and `rowSkipCost` MACs are booked into
     * the stats per forwarded row.
     */
    struct RowPass
    {
        std::function<int64_t(int64_t row, const McacheResult &res)>
            ownerOf;
        std::function<void(int64_t row)> computeRow;
        std::function<void(int64_t row, int64_t owner)> copyRow;
        /**
         * Optional span form of copyRow: copy rows [row0, row1) from
         * owners [owner0, owner0 + (row1 - row0)) in one move. The
         * scheduler coalesces adjacent forwards whose rows
         * and owners both step by one (see span_batcher.hpp — such
         * source/destination ranges never overlap) and calls this
         * instead of per-row copies; per-row copyRow remains the
         * fallback for singletons and when this is unset.
         */
        std::function<void(int64_t row0, int64_t row1, int64_t owner0)>
            copyRowSpan;
        uint64_t rowSkipCost = 0;
    };

    /**
     * Ordered scan + parallel finish (weight-gradient style,
     * §III-C2 sum-then-multiply). `scan(r0, r1)` consumes the stream
     * in order on the driving thread (group accumulation — no block
     * is independent of the ones before it); after the stream drains,
     * `finishItem(i)` fans `finishItems` disjoint work items out over
     * the pass's pool, if any (the per-group multiplies).
     */
    struct ScanPass
    {
        std::function<void(int64_t r0, int64_t r1)> scan;
        int64_t finishItems = 0;
        std::function<void(int64_t item)> finishItem;
    };

    /**
     * Worker pool of the pass currently in flight (null when that
     * pass runs inline). Set at every run* entry from the pass's row
     * count, so parallelChains calls from afterGroup callbacks follow
     * the same overlap decision as the stream.
     */
    ThreadPool *pool() { return passPool_; }

    /**
     * Per-row outcomes of a live runFilterPasses stream, filled
     * before any segment can observe them (valid until the next run*
     * call). Replay passes do not populate this — their descriptors
     * read the record's owner map instead.
     */
    const std::vector<McacheResult> &rowResults() const
    {
        return rowResults_;
    }

    /**
     * Engine-facing scratch arena: cache-aligned buffers that persist
     * across the runtime's passes (see pass_arena.hpp). The engine
     * owns the reset cadence — reset only between its own passes,
     * never while tasks of a running pass may still touch a taken
     * buffer. (The runtime's internal bookkeeping uses a separate
     * arena reset at every run* entry, so engine buffers survive
     * run* calls.)
     */
    PassArena &scratch() { return scratch_; }

    /**
     * The arena-backed per-pass data plane (see pass_arena.hpp) of
     * conv-forward HIT forwarding. The engine configures it per layer
     * call and invalidates it between filter groups; storage persists
     * across passes.
     */
    PassDataPlane &dataPlane() { return plane_; }

    /** Run one chained filter-pass set over the stream. */
    void runFilterPasses(const StreamSource &src, const FilterPassSet &set,
                         ReuseStats &stats);

    /** Run one row-forwarding pass over the stream. */
    void runRows(const StreamSource &src, const RowPass &pass,
                 ReuseStats &stats);

    /** Run one ordered-scan pass over the stream. */
    void runScan(const StreamSource &src, const ScanPass &pass,
                 ReuseStats &stats);

    /**
     * Fan `width` independent chain bodies out over the pass's pool
     * (a loop on the driving thread without one): the non-streamed
     * filter groups, the forwarded-row copies, the scan finish items
     * and the afterGroup fan-outs. fn(i) must write disjoint state.
     */
    void parallelChains(int64_t width,
                        const std::function<void(int64_t)> &fn);

  private:
    DetectionFrontend &fe_;
    int bits_;
    /// Pool of the pass in flight (run* entry resolves it per rows).
    ThreadPool *passPool_ = nullptr;
    std::vector<McacheResult> rowResults_;
    PassArena arena_;   ///< runtime bookkeeping; reset at run* entry
    PassArena scratch_; ///< engine scratch; engine-owned reset cadence
    PassDataPlane plane_;
    /// Reused stream-consumer chains (runFilterPasses); constructing
    /// a SerialExecutor per filter per channel pass was measurable.
    std::vector<std::unique_ptr<SerialExecutor>> chains_;

    /**
     * Give the pass the worker pool iff it resolves overlapped: the
     * frontend's mode (Auto resolves from threads x rows) gated on a
     * pool existing.
     */
    void beginPass(const StreamSource &src);

    /** Stream the source's blocks to `cb` on the driving thread. */
    DetectionResult deliver(const StreamSource &src,
                            const BlockConsumer &cb);

    /** Fold the pass's mix into the stats (live det / recorded). */
    void addPassStats(const StreamSource &src, const DetectionResult &det,
                      ReuseStats &stats);
};

/**
 * Weight-gradient replay of one recorded pass (§III-C2 applied to
 * Eq. 1): computes At B — the dW-shaped reduction Σ_r a_r ⊗ b_r over
 * the pass's n rows — with every forward-HIT row factored through its
 * owner (sum-then-multiply). Owners accumulate the b-rows of their
 * hit-group first (the owner's own row is a bit-exact copy, hits are
 * float adds), then each group performs one outer product with the
 * owner's a-row, in owner-ascending order — the same contraction
 * order (and zero-skip) as matmul(transpose2d(a), b), so a zero-hit
 * replay reproduces it bit for bit; with hits the result is the exact
 * sum up to float-summation order of the grouped b-rows.
 *
 * `stats.macsSkipped` gains da x db per HIT row (its outer product is
 * replaced by db accumulate adds, which the cycle model charges
 * separately as per-group accumulate cycles). Scheduled as a
 * ReuseRuntime ScanPass: the group sums consume the replayed hand-off
 * in stream order on the driving thread, then the outer products fan
 * out over the pool, one disjoint output row per task.
 */
Tensor weightGradReplay(ReuseRuntime &rt, const SignatureRecord &record,
                        const SignatureRecord::Pass &pass, const Tensor &a,
                        const Tensor &b, ReuseStats &stats);

} // namespace mercury

#endif // MERCURY_CORE_REUSE_RUNTIME_HPP
