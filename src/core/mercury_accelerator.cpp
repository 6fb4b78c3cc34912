#include "core/mercury_accelerator.hpp"

#include <cmath>

#include "sim/global_buffer.hpp"
#include "util/logging.hpp"

namespace mercury {

double
TrainingReport::signatureFraction() const
{
    const uint64_t total = totals.mercuryTotal();
    return total ? static_cast<double>(totals.signature) /
                       static_cast<double>(total)
                 : 0.0;
}

MercuryAccelerator::MercuryAccelerator(const AcceleratorConfig &cfg,
                                       std::vector<LayerShape> model)
    : config_(cfg), model_(std::move(model)),
      cost_(sim::CostModel::create(cfg))
{
    if (model_.empty())
        fatal("MercuryAccelerator needs at least one layer");
}

bool
MercuryAccelerator::backwardReusesSignatures(size_t l) const
{
    // §III-C2: O_l equals I_{l+1}, so if the consumer layer's filters
    // have the same dimensions as layer l's, its forward signatures
    // (and hitmap) apply to dO_l directly. Pooling layers have no
    // filters; the condition is checked against the next layer that
    // does.
    const LayerShape &self = model_[l];
    if (self.type != LayerType::Conv)
        return false;
    for (size_t n = l + 1; n < model_.size(); ++n) {
        const LayerShape &next = model_[n];
        if (next.type == LayerType::Pool)
            continue;
        return next.type == LayerType::Conv &&
               next.kernel == self.kernel;
    }
    return false;
}

uint64_t
MercuryAccelerator::baselineBatchCycles(int64_t batch) const
{
    uint64_t total = 0;
    for (size_t l = 0; l < model_.size(); ++l) {
        const LayerShape &shape = model_[l];
        const uint64_t fwd = cost_->baselineCycles(shape, batch);
        total += fwd;
        if (!shape.reusable())
            continue;
        // Backward: weight-gradient pass always; input-gradient pass
        // except for the first layer.
        total += fwd;
        if (l > 0)
            total += fwd;
    }
    return total;
}

TrainingReport
MercuryAccelerator::train(SimilaritySource &source, int batches,
                          int64_t batch,
                          std::function<double(int)> loss_fn,
                          int warmup_batches)
{
    if (batches <= 0 || batch <= 0)
        fatal("train needs positive batches and batch size");
    if (warmup_batches < 0)
        fatal("negative warmup");
    if (!loss_fn) {
        // Smooth decaying loss that plateaus after ~60% of training,
        // so the adaptive signature growth engages late in training
        // exactly as in the paper's description.
        loss_fn = [batches](int b) {
            const double progress =
                static_cast<double>(b) / std::max(batches - 1, 1);
            return 0.5 + 2.0 * std::exp(-10.0 * progress);
        };
    }

    AdaptiveController adaptive(config_,
                                static_cast<int>(model_.size()));
    TrainingReport report;
    report.layers.resize(model_.size());
    for (size_t l = 0; l < model_.size(); ++l) {
        report.layers[l].name = model_[l].name;
        report.layers[l].type = model_[l].type;
    }

    // Record spill accounting (§III-C2): with a replay knob on, each
    // reuse-enabled layer's SignatureRecord occupies the global
    // buffer from its forward pass until the whole forward sweep has
    // finished and its backward pass replays it — so the peak working
    // set is the sum over the layers alive at the forward/backward
    // turnaround.
    const bool holds_records =
        config_.backwardReuse || config_.weightGradReuse;
    GlobalBuffer record_buffer;
    std::vector<uint64_t> held(model_.size(), 0);

    for (int b = -warmup_batches; b < batches; ++b) {
        const bool warm = b < 0;
        const int sig_bits = adaptive.signatureBits();
        for (size_t l = 0; l < model_.size(); ++l) {
            const LayerShape &shape = model_[l];
            LayerReport &lr = report.layers[static_cast<size_t>(l)];
            const uint64_t base_fwd =
                cost_->baselineCycles(shape, batch);

            LayerCycles layer_batch; // this layer, this batch
            const bool reuse_on =
                shape.reusable() && adaptive.layerOn(static_cast<int>(l));
            if (!warm && holds_records && reuse_on) {
                held[l] = cost_->recordBytes(shape, batch, sig_bits);
                record_buffer.holdRecord(held[l]);
            }

            // ---- Forward propagation ----
            if (reuse_on) {
                const HitMix fwd_mix =
                    source.channelMix(shape, sig_bits, Phase::Forward);
                layer_batch += cost_->layerCost(
                    shape, batch, fwd_mix, sig_bits, false);
                lr.lastForwardMix = fwd_mix;
            } else {
                LayerCycles c;
                c.baseline = base_fwd;
                c.computation = base_fwd;
                layer_batch += c;
            }

            // ---- Backward propagation ----
            if (shape.reusable()) {
                // Weight gradients (Eq. 1): with weightGradReuse the
                // forward record is replayed (sum-then-multiply on
                // the forward mix); otherwise gradient vectors are
                // hashed anew every time.
                if (reuse_on && config_.weightGradReuse) {
                    layer_batch += cost_->weightGradCost(
                        shape, batch, lr.lastForwardMix, sig_bits);
                } else if (reuse_on) {
                    const HitMix dw_mix = source.channelMix(
                        shape, sig_bits, Phase::BackwardWeight);
                    layer_batch += cost_->layerCost(
                        shape, batch, dw_mix, sig_bits, false);
                } else {
                    LayerCycles c;
                    c.baseline = base_fwd;
                    c.computation = base_fwd;
                    layer_batch += c;
                }
                // Input gradients (Eq. 2), skipped for the first
                // layer. Signatures are reloaded from the forward
                // pass when filter dimensions match (§III-C2).
                if (l > 0) {
                    if (reuse_on) {
                        const HitMix dx_mix = source.channelMix(
                            shape, sig_bits, Phase::BackwardInput);
                        layer_batch += cost_->layerCost(
                            shape, batch, dx_mix, sig_bits,
                            backwardReusesSignatures(l));
                    } else {
                        LayerCycles c;
                        c.baseline = base_fwd;
                        c.computation = base_fwd;
                        layer_batch += c;
                    }
                }
            }

            adaptive.observeLayerCycles(static_cast<int>(l),
                                        layer_batch.mercuryTotal(),
                                        layer_batch.baseline);
            if (!warm) {
                lr.cycles += layer_batch;
                report.totals += layer_batch;
            }
        }
        // The backward sweep replays and releases the records in
        // reverse layer order.
        for (size_t l = model_.size(); l-- > 0;) {
            if (held[l]) {
                record_buffer.releaseRecord(held[l]);
                held[l] = 0;
            }
        }
        adaptive.observeLoss(loss_fn(std::max(b, 0)));
    }
    report.recordPeakBytes = record_buffer.peakRecordBytes();
    report.recordSpillBytes = record_buffer.signatureBytes();

    for (size_t l = 0; l < model_.size(); ++l) {
        report.layers[l].detectionOn =
            adaptive.layerOn(static_cast<int>(l));
    }
    report.finalSignatureBits = adaptive.signatureBits();
    // Count only layers MERCURY applies to, as in Fig. 14a.
    report.layersOn = 0;
    report.layersOff = 0;
    for (size_t l = 0; l < model_.size(); ++l) {
        if (!model_[l].reusable())
            continue;
        if (report.layers[l].detectionOn)
            ++report.layersOn;
        else
            ++report.layersOff;
    }
    return report;
}

} // namespace mercury
