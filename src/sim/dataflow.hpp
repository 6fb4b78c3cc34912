/**
 * @file
 * Dataflow timing models for the baseline accelerator and MERCURY.
 *
 * Each model answers two questions for a layer:
 *  - how many cycles does the baseline machine spend on it, and
 *  - how many cycles does MERCURY spend, given the HIT/MAU/MNU mix
 *    that the similarity detector measured for one channel pass and
 *    the current signature length.
 *
 * The conv timing is statistical-per-channel: channels of a layer are
 * treated as identically distributed, so the per-channel cost is
 * computed once and scaled by (batch x inChannels). The HIT/MAU/MNU
 * mix itself comes from running the real RPQ + MCACHE machinery on
 * extracted vectors (see core/similarity_detector.hpp).
 *
 * Synchronous design: every phase barriers across PE sets, so a
 * channel costs the *slowest* set's time per filter pass.
 * Asynchronous design (double input buffers, M-slot shared filter
 * buffer, multi-version MCACHE): imbalance between PE sets is
 * smoothed across passes, so a long run costs the *average* set time,
 * plus a one-off drain. With a single filter slot the async design
 * degenerates to the synchronous one.
 *
 * This is the compute model both sim::CostModel backends share
 * (sim/cost_model.hpp). Consumers go through sim::CostModel, not
 * Dataflow::create: the same arithmetic under the analytic backend,
 * with the discrete-event memory-hierarchy backend selectable by
 * SimConfig::backend / MERCURY_SIM_BACKEND.
 */

#ifndef MERCURY_SIM_DATAFLOW_HPP
#define MERCURY_SIM_DATAFLOW_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/layer_shape.hpp"

namespace mercury {

/** Outcome counts of hitmap construction over one vector population. */
struct HitMix
{
    int64_t vectors = 0; ///< total vectors hashed
    int64_t hit = 0;     ///< MCACHE hits (computation skipped)
    int64_t mau = 0;     ///< miss-and-update (tag inserted)
    int64_t mnu = 0;     ///< miss-no-update (set was full)

    int64_t misses() const { return mau + mnu; }
    double hitFraction() const;

    /** Construct from fractions (remainder becomes MAU). */
    static HitMix fromFractions(int64_t vectors, double hit_frac,
                                double mnu_frac = 0.0);

    /** Rescale the mix to a different population size. */
    HitMix scaledTo(int64_t new_vectors) const;

    /** Validate internal consistency (counts sum to vectors). */
    bool consistent() const { return hit + mau + mnu == vectors; }

    /** Accumulate another population's counts (pass aggregation). */
    HitMix &operator+=(const HitMix &other)
    {
        vectors += other.vectors;
        hit += other.hit;
        mau += other.mau;
        mnu += other.mnu;
        return *this;
    }
};

/** Cycle cost decomposition of one layer under MERCURY. */
struct LayerCycles
{
    uint64_t baseline = 0;      ///< baseline machine, no reuse
    uint64_t computation = 0;   ///< MERCURY: remaining layer computation
    uint64_t signature = 0;     ///< MERCURY: signature generation
    uint64_t cacheOverhead = 0; ///< MERCURY: MCACHE insert serialization

    /** Total MERCURY cycles. */
    uint64_t mercuryTotal() const
    {
        return computation + signature + cacheOverhead;
    }

    /** Baseline / MERCURY speedup for this aggregate. */
    double speedup() const;

    LayerCycles &operator+=(const LayerCycles &other);
};

/** Abstract dataflow timing model. */
class Dataflow
{
  public:
    virtual ~Dataflow() = default;

    /** Factory keyed on config.dataflow. */
    static std::unique_ptr<Dataflow> create(const AcceleratorConfig &cfg);

    virtual DataflowKind kind() const = 0;

    const AcceleratorConfig &config() const { return config_; }

    /** Baseline cycles for a whole layer over a batch. */
    uint64_t baselineLayerCycles(const LayerShape &shape,
                                 int64_t batch) const;

    /**
     * MERCURY cycles for a whole layer over a batch.
     *
     * @param channel_mix HIT/MAU/MNU mix of one channel pass (conv) or
     *                    one input-block pass (FC / attention)
     * @param sig_bits    current signature length
     * @param saved_signatures when true the signatures are reloaded
     *                    from the forward pass (§III-C2) and signature
     *                    generation is free
     *
     * With config.overlapDetection set, signature generation is
     * charged per the Fig. 8 overlap: only the part exceeding the
     * layer's compute cycles lands in LayerCycles::signature (the
     * rest hides under computation); serial accounting otherwise.
     */
    LayerCycles mercuryLayerCycles(const LayerShape &shape, int64_t batch,
                                   const HitMix &channel_mix, int sig_bits,
                                   bool saved_signatures = false) const;

    /**
     * MERCURY cycles of the input-gradient (backward) pass of a layer
     * (§III-C2). The backward MAC structure mirrors the forward pass
     * (Eq. 2 is a full correlation with the flipped kernel), so the
     * baseline backward cost equals the forward baseline.
     *
     * With config.backwardReuse off, backward runs without reuse and
     * costs the baseline. With it on, the forward pass's signatures
     * are *replayed* from the Signature Table: compute shrinks by the
     * forward hit fraction exactly as in the forward accounting, the
     * MCACHE insert serialization disappears (tags were placed on
     * forward; replay inserts nothing), and the signature charge is
     * the replay-only streaming cost (signatureReplayCycles) instead
     * of a regeneration. config.overlapDetection additionally hides
     * the replay charge under compute, Fig. 8-style.
     *
     * With `include_weight_grad` the result additionally carries the
     * weight-gradient pass (weightGradLayerCycles) — the full
     * backward half of a training step for this layer.
     */
    LayerCycles backwardLayerCycles(const LayerShape &shape, int64_t batch,
                                    const HitMix &channel_mix,
                                    int sig_bits,
                                    bool include_weight_grad = false) const;

    /**
     * MERCURY cycles of the weight-gradient (dW) pass of a layer
     * (§III-C2 applied to Eq. 1). dW = X ⊛ dY has the same MAC
     * structure as the forward pass, so its baseline equals the
     * forward baseline.
     *
     * With config.weightGradReuse off, the pass runs without reuse
     * and costs the baseline. With it on, the forward record is
     * replayed (sum-then-multiply): the outer products shrink by the
     * forward hit fraction exactly as in the forward accounting, each
     * HIT row instead pays one accumulate add per filter to fold its
     * output gradient into the owner's group sum (charged across the
     * PEs), the signature charge is the replay-only streaming cost,
     * and no MCACHE inserts happen. config.overlapDetection hides the
     * replay stream under the remaining compute, Fig. 8-style.
     */
    LayerCycles weightGradLayerCycles(const LayerShape &shape,
                                      int64_t batch,
                                      const HitMix &channel_mix,
                                      int sig_bits) const;

    /**
     * Bytes the SignatureRecord of one forward pass of this layer
     * occupies between forward and backward (§III-C2 spill
     * accounting): per hashed vector, the bit-packed signature words
     * plus the entry id and outcome — mirroring the functional
     * SignatureRecord storage layout, so the estimate matches
     * SignatureRecord::storageBytes for an engine-captured record of
     * the same geometry. CostModel::stepCost holds a record up to
     * kHoldRecordBytes and spills a larger one (the library's one
     * spill rule).
     */
    uint64_t recordSpillBytes(const LayerShape &shape, int64_t batch,
                              int sig_bits) const;

  protected:
    explicit Dataflow(const AcceleratorConfig &cfg);

    /** Baseline cycles of one conv channel pass (one image). */
    virtual uint64_t convChannelBaseline(const LayerShape &shape) const = 0;

    /** MERCURY cycles of one conv channel pass (one image). */
    virtual LayerCycles convChannelMercury(const LayerShape &shape,
                                           const HitMix &mix, int sig_bits,
                                           bool saved_signatures) const = 0;

    /** Serialization overhead of MAU inserts through set queues. */
    uint64_t insertOverhead(const HitMix &mix) const;

    AcceleratorConfig config_;

  private:
    uint64_t fcBaseline(const LayerShape &shape, int64_t batch) const;
    LayerCycles fcMercury(const LayerShape &shape, int64_t batch,
                          const HitMix &mix, int sig_bits,
                          bool saved_signatures) const;
    uint64_t poolCycles(const LayerShape &shape, int64_t batch) const;
};

/** Row-stationary (Eyeriss-style) machine: the paper's baseline. */
class RowStationaryDataflow : public Dataflow
{
  public:
    explicit RowStationaryDataflow(const AcceleratorConfig &cfg);

    DataflowKind kind() const override
    {
        return DataflowKind::RowStationary;
    }

    /** PE sets available for kernel height x. */
    int64_t numPESets(int64_t x) const;

  protected:
    uint64_t convChannelBaseline(const LayerShape &shape) const override;
    LayerCycles convChannelMercury(const LayerShape &shape,
                                   const HitMix &mix, int sig_bits,
                                   bool saved_signatures) const override;

  private:
    /** Split a channel mix across PE sets (largest-remainder). */
    void perSetMix(const LayerShape &shape, const HitMix &mix,
                   std::vector<HitMix> &out) const;
};

/** Weight-stationary machine (§IV). */
class WeightStationaryDataflow : public Dataflow
{
  public:
    explicit WeightStationaryDataflow(const AcceleratorConfig &cfg);

    DataflowKind kind() const override
    {
        return DataflowKind::WeightStationary;
    }

  protected:
    uint64_t convChannelBaseline(const LayerShape &shape) const override;
    LayerCycles convChannelMercury(const LayerShape &shape,
                                   const HitMix &mix, int sig_bits,
                                   bool saved_signatures) const override;
};

/** Input-stationary machine (§IV). */
class InputStationaryDataflow : public Dataflow
{
  public:
    explicit InputStationaryDataflow(const AcceleratorConfig &cfg);

    DataflowKind kind() const override
    {
        return DataflowKind::InputStationary;
    }

  protected:
    uint64_t convChannelBaseline(const LayerShape &shape) const override;
    LayerCycles convChannelMercury(const LayerShape &shape,
                                   const HitMix &mix, int sig_bits,
                                   bool saved_signatures) const override;
};

} // namespace mercury

#endif // MERCURY_SIM_DATAFLOW_HPP
