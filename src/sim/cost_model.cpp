#include "sim/cost_model.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/event_model/event_model.hpp"
#include "util/logging.hpp"

namespace mercury {
namespace sim {

ComponentStats &
ComponentStats::operator+=(const ComponentStats &other)
{
    dram.requests += other.dram.requests;
    dram.bytes += other.dram.bytes;
    dram.rowHits += other.dram.rowHits;
    dram.rowMisses += other.dram.rowMisses;
    dram.bankConflictCycles += other.dram.bankConflictCycles;
    dram.busyCycles += other.dram.busyCycles;
    gbuf.accesses += other.gbuf.accesses;
    gbuf.bytes += other.gbuf.bytes;
    gbuf.bankConflictCycles += other.gbuf.bankConflictCycles;
    gbuf.fills += other.gbuf.fills;
    gbuf.pendingStallCycles += other.gbuf.pendingStallCycles;
    gbuf.spillBytes += other.gbuf.spillBytes;
    mcache.probes += other.mcache.probes;
    mcache.hits += other.mcache.hits;
    mcache.inserts += other.mcache.inserts;
    mcache.insertSerialCycles += other.mcache.insertSerialCycles;
    pe.passes += other.pe.passes;
    pe.busyCycles += other.pe.busyCycles;
    pe.memStallCycles += other.pe.memStallCycles;
    return *this;
}

void
ComponentStats::print(uint64_t total_cycles, int dram_banks) const
{
    const double t = total_cycles > 0
                         ? static_cast<double>(total_cycles) / 100.0
                         : 1.0;
    // busyCycles sums over the banks, which serve requests in parallel.
    const double dram_t = t * std::max(dram_banks, 1);
    std::printf("  dram:   %llu reqs, %llu B, row hit %llu / miss %llu, "
                "bank-conflict %llu cyc, occupancy %.1f%%\n",
                (unsigned long long)dram.requests,
                (unsigned long long)dram.bytes,
                (unsigned long long)dram.rowHits,
                (unsigned long long)dram.rowMisses,
                (unsigned long long)dram.bankConflictCycles,
                static_cast<double>(dram.busyCycles) / dram_t);
    std::printf("  gbuf:   %llu accesses, %llu B, %llu fills, "
                "bank-conflict %llu cyc, pending-stall %llu cyc, "
                "spill %llu B\n",
                (unsigned long long)gbuf.accesses,
                (unsigned long long)gbuf.bytes,
                (unsigned long long)gbuf.fills,
                (unsigned long long)gbuf.bankConflictCycles,
                (unsigned long long)gbuf.pendingStallCycles,
                (unsigned long long)gbuf.spillBytes);
    std::printf("  mcache: %llu probes (%llu hit), %llu inserts, "
                "insert-serial %llu cyc\n",
                (unsigned long long)mcache.probes,
                (unsigned long long)mcache.hits,
                (unsigned long long)mcache.inserts,
                (unsigned long long)mcache.insertSerialCycles);
    std::printf("  pe:     %llu passes, occupancy %.1f%%, mem-stall "
                "%llu cyc\n",
                (unsigned long long)pe.passes,
                static_cast<double>(pe.busyCycles) / t,
                (unsigned long long)pe.memStallCycles);
}

CostModel::CostModel(const AcceleratorConfig &cfg)
    : cfg_(cfg), flow_(Dataflow::create(cfg))
{
}

std::unique_ptr<CostModel>
CostModel::create(const AcceleratorConfig &cfg)
{
    switch (resolvedSimBackend(cfg.sim.backend)) {
    case SimBackend::Event:
        return std::make_unique<EventModel>(cfg);
    case SimBackend::Analytic:
        break;
    }
    return std::make_unique<AnalyticModel>(cfg);
}

const char *
resolvedBackendName(const AcceleratorConfig &cfg)
{
    return simBackendName(resolvedSimBackend(cfg.sim.backend));
}

uint64_t
CostModel::baselineCycles(const LayerShape &shape, int64_t batch) const
{
    return flow_->baselineLayerCycles(shape, batch);
}

LayerCycles
CostModel::layerCost(const LayerShape &shape, int64_t batch,
                     const HitMix &channel_mix, int sig_bits,
                     bool saved_signatures) const
{
    return flow_->mercuryLayerCycles(shape, batch, channel_mix, sig_bits,
                                     saved_signatures);
}

LayerCycles
CostModel::backwardCost(const LayerShape &shape, int64_t batch,
                        const HitMix &channel_mix, int sig_bits,
                        bool include_weight_grad) const
{
    return flow_->backwardLayerCycles(shape, batch, channel_mix, sig_bits,
                                      include_weight_grad);
}

LayerCycles
CostModel::weightGradCost(const LayerShape &shape, int64_t batch,
                          const HitMix &channel_mix, int sig_bits) const
{
    return flow_->weightGradLayerCycles(shape, batch, channel_mix,
                                        sig_bits);
}

uint64_t
CostModel::recordBytes(const LayerShape &shape, int64_t batch,
                       int sig_bits) const
{
    return flow_->recordSpillBytes(shape, batch, sig_bits);
}

AnalyticModel::AnalyticModel(const AcceleratorConfig &cfg) : CostModel(cfg)
{
}

namespace {

/** A reusable layer's pass geometry: the detection passes one forward
 *  runs (the counts the functional engines drive) and the raw
 *  activation bytes each streams. Patch extraction runs on-chip over
 *  the streamed conv plane, so the raw bytes, not the k*k-redundant
 *  patch bytes, hit the memory hierarchy. */
void
setPassGeometry(const LayerShape &shape, int64_t batch, LayerStep &l)
{
    switch (shape.type) {
    case LayerType::Conv: // one pass per (image, input channel) plane
        l.passes = batch * shape.inChannels;
        l.inputBytesPerPass = shape.inH * shape.inW * 4;
        break;
    case LayerType::FullyConnected: // one pass over the minibatch rows
        l.passes = 1;
        l.inputBytesPerPass = batch * shape.inFeatures * 4;
        break;
    case LayerType::Attention: // one pass per sample's token matrix
        l.passes = batch;
        l.inputBytesPerPass = shape.seqLen * shape.embedDim * 4;
        break;
    case LayerType::Pool:
        break;
    }
}

} // namespace

StepSchedule
CostModel::scheduleStep(const std::vector<LayerShape> &stack,
                        const std::vector<HitMix> &mixes, int64_t batch,
                        int sig_bits) const
{
    if (stack.size() != mixes.size())
        panic("stepCost needs one mix per layer, got ", mixes.size(),
              " for ", stack.size());
    const bool captures = cfg_.backwardReuse || cfg_.weightGradReuse;

    StepSchedule s;
    s.layers.resize(stack.size());
    for (size_t i = 0; i < stack.size(); ++i) {
        const LayerShape &shape = stack[i];
        LayerStep &l = s.layers[i];
        if (!shape.reusable()) {
            // Pools run exactly; their (small) cost appears in both
            // step totals via the baseline charge.
            const uint64_t pool = baselineCycles(shape, batch);
            l.forward.baseline = pool;
            l.forward.computation = pool;
            s.cycles += l.forward;
            continue;
        }
        l.forward = layerCost(shape, batch, mixes[i], sig_bits);
        if (captures) {
            l.gradient = backwardCost(shape, batch, mixes[i], sig_bits,
                                      cfg_.weightGradReuse);
            l.recordBytes = recordBytes(shape, batch, sig_bits);
            l.holdRecord = l.recordBytes <= kHoldRecordBytes;
        }
        setPassGeometry(shape, batch, l);
        s.cycles += l.forward;
        s.cycles += l.gradient;
        s.setupCycles += kSetupCyclesPerLayer +
                         kSetupCyclesPerPass *
                             static_cast<uint64_t>(l.passes);
    }

    int prev_conv = -1;
    for (size_t i = 0; i < stack.size(); ++i) {
        if (stack[i].type == LayerType::Pool)
            continue;
        if (stack[i].type != LayerType::Conv) {
            prev_conv = -1;
            continue;
        }
        if (prev_conv >= 0) {
            const LayerStep &pred = s.layers[static_cast<size_t>(prev_conv)];
            const uint64_t window =
                pred.passes > 0 ? pred.forward.computation /
                                      static_cast<uint64_t>(pred.passes)
                                : 0;
            LayerStep &succ = s.layers[i];
            succ.hiddenSignature = std::min(window, succ.forward.signature);
            s.hiddenSignature += succ.hiddenSignature;
            ++s.fusedEdges;
        }
        prev_conv = static_cast<int>(i);
    }
    return s;
}

CostBreakdown
AnalyticModel::stepCost(const std::vector<LayerShape> &stack,
                        const std::vector<HitMix> &mixes, int64_t batch,
                        int sig_bits) const
{
    const StepSchedule s = scheduleStep(stack, mixes, batch, sig_bits);
    CostBreakdown out;
    out.cycles = s.cycles;
    out.barrierCycles = s.cycles.mercuryTotal() + s.setupCycles;
    out.plannedCycles = s.cycles.mercuryTotal() - s.hiddenSignature;
    out.setupCycles = s.setupCycles;
    out.hiddenSignature = s.hiddenSignature;
    out.fusedEdges = s.fusedEdges;
    return out;
}

} // namespace sim
} // namespace mercury
