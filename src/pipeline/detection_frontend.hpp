/**
 * @file
 * DetectionFrontend: the one similarity front-end the reuse engines,
 * workloads, and NN hooks consume (§III-B, Fig. 7).
 *
 * A frontend owns (or borrows) the MCACHE, provisions an RPQEngine
 * per vector dimension on demand, and holds the pipeline knobs (block
 * size, threads), so callers never assemble RPQEngine + MCache by
 * hand. A detection pass has two stages over one flat result, a
 * SignatureRecord::Pass:
 *
 *  1. blocked signature generation — row blocks are projected against
 *     all signature filters at once (RPQEngine::signatureWords) and
 *     sign-packed straight into the pass's packed words, on the
 *     frontend's pool when it has one (DetectionHashJob). A pass has
 *     one of two sources: the rows of a (n, d) matrix (detect(), FC,
 *     attention), or the output positions of one input channel's conv
 *     frame, whose blocks are convolved with the random filters
 *     (Fig. 7a) — a conv pass extracts no patches;
 *  2. MCACHE probing — each hashed block is probed in stream order on
 *     the calling thread, one MCache::probeBlock call per block, so
 *     every MCACHE set sees its signatures in the scalar detector's
 *     order. The probe writes each row's outcome, entry id and owner
 *     (OwnerTable's rule, one table per frontend) into the pass and
 *     counts the mix, with no branch on any row's outcome.
 *
 * Every pass is the same two halves: beginHashStream starts stage 1
 * and touches no MCACHE state, so the caller may keep working on the
 * previous pass's results while it runs (the conv forward hashes the
 * next channel's frame under the current one's computes);
 * finishStream probes the blocks as they land — on a pool, later
 * blocks still hash while earlier ones probe — and returns the
 * finished pass. detect() is the two back to back. The caller then
 * runs its dense owner kernel over the pass's owner rows; replays read
 * a recorded pass and never come through here.
 *
 * Storage outlives the pass: the caller owns the hash job and begins
 * it again for each pass, and hands beginHashStream the storage to
 * build the pass in — a pass its record dropped (SignatureRecord::
 * takeSpare) or one it is done with — so a steady-state stream of
 * passes on the serial path allocates nothing that scales with its
 * rows; only a pass a pool hashes builds the job's sequencer.
 *
 * Results are bit-identical to SimilarityDetector over the same
 * MCache organization for any block size and thread count:
 * projections accumulate in the same element order, and each MCACHE
 * set sees its signatures in the same stream order.
 *
 * Concurrency contract: one thread drives a frontend's passes at a
 * time — the frontend fans work out internally. The RPQ provisioning
 * map and the lazy pool are owned by the driving thread, so two
 * threads must not run passes on one frontend concurrently.
 */

#ifndef MERCURY_PIPELINE_DETECTION_FRONTEND_HPP
#define MERCURY_PIPELINE_DETECTION_FRONTEND_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/mcache.hpp"
#include "core/rpq.hpp"
#include "pipeline/signature_record.hpp"
#include "sim/config.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Tuning knobs of the detection pipeline. */
struct PipelineConfig
{
    /**
     * Rows per projection work item (stage 1 granularity). 0 = auto:
     * resolved per pass to the sweep-tuned value for the pass size
     * (tunedPipelineFor, bench/sweep_tuning).
     */
    int64_t blockRows = 64;

    /**
     * Worker threads: 1 = run inline on the caller, 0 = auto. The
     * pool hashes live passes and runs the replays' fan-outs.
     */
    int threads = 1;

    /**
     * Persistent MCACHE (serving layer): when true, passes do NOT
     * clear the cache first — tags survive across passes, so rows
     * similar to a *previous* request HIT instead of re-inserting.
     * Correctness is unchanged: result forwarding is strictly
     * within-pass (the engines compute a cross-pass HIT exactly, via
     * their per-pass owner maps), so
     * persistence trades only which rows count as hits. The §V
     * insert-backlog model is still reset per pass. Lifecycle
     * (eviction, epochs, quota) is driven by the cache owner; see
     * docs/ARCHITECTURE.md, "Serving layer".
     */
    bool persistent = false;

    /** Lift the pipeline knobs out of an accelerator configuration. */
    static PipelineConfig fromConfig(const AcceleratorConfig &cfg);

    /**
     * Effective knobs for a pass over `rows` vectors: blockRows == 0
     * (auto) resolves to the sweep-tuned block size for the pass
     * size; explicit values pass through untouched.
     */
    PipelineConfig resolvedFor(int64_t rows) const;
};

/**
 * The stage-1 (hashing) half of a detection pass: begun by
 * DetectionFrontend::beginHashStream and consumed by
 * DetectionFrontend::finishStream, after which the job is idle and may
 * be begun again — the conv forward runs all of its channel passes
 * through one job.
 *
 * With a pool, self-replenishing hash tasks start when the job begins,
 * and a sequencer (hand-off queue, hashed flags, the task) is built for
 * that pass; without one the job builds none, and each block hashes
 * when the probe reaches it. While a job is in flight its hash tasks
 * read the source (row tensor, or conv frame and its geometry) and the
 * cache *geometry* (set count) only — never cache tags or data — so a
 * job for the next pass may hash while the caller still works on the
 * previous pass's results. The job owns the pass it is filling:
 * hashing writes the packed words and each row's set index (into the
 * entry-id slot, which the probe reads and then overwrites),
 * finishStream the outcomes, entry ids, owners and mix. The source
 * must stay alive and unmodified until finishStream returns (or the
 * job is destroyed, which joins the outstanding hash tasks).
 */
class DetectionHashJob
{
  public:
    /** An idle job. */
    DetectionHashJob();

    /** Joins any outstanding hash tasks. */
    ~DetectionHashJob();

    DetectionHashJob(const DetectionHashJob &) = delete;
    DetectionHashJob &operator=(const DetectionHashJob &) = delete;

  private:
    friend class DetectionFrontend;
    struct Sequencer;

    /**
     * Fill `storage` with a pass over the source and, with a pool,
     * start hashing on it. The source is `rows` when non-null, else
     * the `n` output positions of `frame` under `geometry`.
     */
    void start(const Tensor *rows, const ConvFrame *geometry,
               const float *frame, int64_t n, const RPQEngine &rpq,
               const MCache &cache, int bits, int64_t block_rows,
               ThreadPool *pool, SignatureRecord::Pass &&storage);

    void projectBlock(int64_t b);

    /**
     * Claim the next unhashed block, hash it and publish every block
     * the frontier can now pass; false when no block is left to
     * claim. Hash tasks and the probing thread both call this.
     */
    bool hashNext();

    /**
     * Return once block `b`, the next in stream order, is hashed:
     * without a pool, hash it here; with one, take it from the
     * sequencer, hashing unclaimed blocks while it is not ready.
     */
    void awaitHashed(int64_t b);

    const Tensor *rows_ = nullptr;        ///< row source, or null
    const ConvFrame *geometry_ = nullptr; ///< frame source (rows_ null)
    const float *frame_ = nullptr;
    const RPQEngine *rpq_ = nullptr;
    const MCache *cache_ = nullptr; ///< geometry reads only; null: idle
    int bits_ = 0;
    int64_t blockRows_ = 0;
    int64_t n_ = 0;
    int64_t blocks_ = 0;
    SignatureRecord::Pass pass_;     ///< the result being filled
    std::unique_ptr<Sequencer> seq_; ///< pooled passes only
};

/** Pipeline-backed similarity detection front-end. */
class DetectionFrontend
{
  public:
    /**
     * Owning form: builds an MCache with the given organization.
     *
     * @param sets / ways / data_versions  MCACHE organization
     * @param max_bits  maximum signature length to provision per RPQ
     * @param seed      projection seed (shared by every vector dim)
     * @param pipe      pipeline knobs
     */
    DetectionFrontend(int sets, int ways, int data_versions, int max_bits,
                      uint64_t seed, PipelineConfig pipe = {});

    /**
     * Borrowing form: run against an externally owned MCache, which
     * must outlive the frontend. The legacy engine constructors share
     * a caller-provided cache this way, and many frontends (e.g. one
     * per NN layer, each with its own projection seed) share one
     * MCACHE allocation — fine because every non-persistent pass
     * clears the cache first. Stage-1 blocking and threading still
     * apply.
     */
    DetectionFrontend(MCache &cache, int max_bits, uint64_t seed,
                      PipelineConfig pipe = {});

    /** MCACHE organization + pipeline knobs from an accelerator cfg. */
    DetectionFrontend(const AcceleratorConfig &cfg, uint64_t seed);

    DetectionFrontend(const DetectionFrontend &) = delete;
    DetectionFrontend &operator=(const DetectionFrontend &) = delete;

    int maxBits() const { return maxBits_; }
    uint64_t seed() const { return seed_; }
    const PipelineConfig &pipeline() const { return pipe_; }

    /**
     * Run passes on an externally owned worker pool instead of
     * creating a private one — lets many frontends (e.g. one per NN
     * layer) share a single pool. The pool must outlive the frontend;
     * passing nullptr reverts to the private pool.
     */
    void setSharedPool(ThreadPool *pool) { sharedPool_ = pool; }

    /**
     * Run one detection pass over a (num_vectors, d) matrix at the
     * given signature length: beginHashStream + finishStream. Clears
     * the cache first; the RPQEngine for dimension d is created on
     * first use and reused afterwards. Returns the pass (packed words,
     * outcomes, entry ids, owner map, mix); to keep it for the
     * backward replay (§III-C2), move it into a SignatureRecord with
     * append(pass, dataVersions(), entries()).
     */
    SignatureRecord::Pass detect(const Tensor &rows, int bits);

    /**
     * Begin the idle `job`: the hashing half of a pass over the rows of
     * a (n, d) matrix. No MCACHE state is touched, so the caller may
     * keep working on the previous pass's results while it hashes.
     * `rows` must outlive the job's pass, unmodified; finish it with
     * finishStream. The pass is built in `storage`, whose vectors keep
     * their capacity (a dropped record pass, SignatureRecord::
     * takeSpare, or a finished pass the caller is done with), so a
     * steady stream of passes allocates nothing per pass. One thread
     * drives begin/finish, like every other pass. Without a pool,
     * hashing is deferred into finishStream. Panics on a job in
     * flight, a signature length outside 1..maxBits() or a
     * non-positive block size.
     */
    void beginHashStream(DetectionHashJob &job, const Tensor &rows, int bits,
                         SignatureRecord::Pass storage = {});

    /**
     * The conv pass source: begin hashing the outH * outW output
     * positions of one input channel, loaded at `frame` as `geometry`
     * describes (tensor/ops.hpp's ConvFrame), their kH * kW patches the
     * vectors — row r of the pass is position r, and the words equal
     * the row source's over the channel's im2col rows. The blocks hash
     * exactly as the row source's do (RPQEngine's frame
     * signatureWords). `geometry` and `frame` must outlive the job's
     * pass, the frame unmodified.
     */
    void beginHashStream(DetectionHashJob &job, const ConvFrame &geometry,
                         const float *frame, int bits,
                         SignatureRecord::Pass storage = {});

    /**
     * Probe half of a pass begun with beginHashStream: clears the
     * cache (the new vector population arrived, §III-B3; a persistent
     * cache only resets its insert backlog), probes the blocks in
     * ascending order on the calling thread as they finish hashing —
     * one MCache::probeBlock per block — and returns the filled pass:
     * its outcomes, entry ids, words and mix are SimilarityDetector::
     * detect's, row for row, and its owner map is OwnerTable's rule
     * over them. Leaves the job idle.
     */
    SignatureRecord::Pass finishStream(DetectionHashJob &job);

    /**
     * The pool detection passes fan out to — shared pool if set,
     * otherwise the private pool for the configured thread knob.
     * nullptr when the resolved thread count is 1: every pass then
     * runs inline on the calling thread. Live passes hash on it and
     * replays fan out on it (parallelRanges).
     */
    ThreadPool *workerPool() { return poolFor(); }

    /** The cache behind the frontend. */
    MCache &cache() { return *cache_; }
    const MCache &cache() const { return *cache_; }

    /** MCACHE organization the engines size their buffers from. */
    int dataVersions() const { return cache_->dataVersions(); }
    int64_t entries() const { return cache_->entries(); }

  private:
    std::unique_ptr<MCache> ownedCache_;
    MCache *cache_; // owned or external
    OwnerTable owners_; // the probe's owner rule, over cache_'s entries
    PipelineConfig pipe_;
    int maxBits_;
    uint64_t seed_;
    std::map<int64_t, std::unique_ptr<RPQEngine>> rpqByDim_;
    std::unique_ptr<ThreadPool> pool_; // created lazily for threads > 1
    ThreadPool *sharedPool_ = nullptr; // externally owned override

    RPQEngine &rpqFor(int64_t dim);
    ThreadPool *poolFor();

    /** Check the knobs and start `job` over either source. */
    void beginJob(DetectionHashJob &job, const Tensor *rows,
                  const ConvFrame *geometry, const float *frame, int64_t n,
                  int64_t dim, int bits, SignatureRecord::Pass &&storage);
};

/**
 * Owned-or-shared frontend binding for the reuse engines: runs a
 * private frontend over a caller-provided MCache, or references a
 * shared DetectionFrontend, validating the signature length once in
 * one place for every engine.
 */
class FrontendHandle
{
  public:
    /** Private frontend over a caller-owned cache. */
    FrontendHandle(MCache &cache, int sig_bits, uint64_t seed,
                   const PipelineConfig &pipe, const char *engine);

    /** Bind a shared frontend; sig_bits must fit its provisioning. */
    FrontendHandle(DetectionFrontend &frontend, int sig_bits,
                   const char *engine);

    /** Signature length the owning engine detects with. */
    int signatureBits() const { return sigBits_; }

    /** Access the bound frontend (owned or shared). */
    DetectionFrontend &operator*() const { return frontend_; }
    DetectionFrontend *operator->() const { return &frontend_; }

  private:
    std::unique_ptr<DetectionFrontend> owned_;
    DetectionFrontend &frontend_;
    int sigBits_;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_DETECTION_FRONTEND_HPP
