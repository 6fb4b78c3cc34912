#include "sim/event_model/event_model.hpp"

#include <algorithm>

#include "core/runtime_planner.hpp"
#include "sim/event_model/dram.hpp"
#include "sim/event_model/event_loop.hpp"
#include "sim/event_model/global_buffer_sim.hpp"
#include "sim/event_model/mcache_sim.hpp"
#include "sim/event_model/pe_array_sim.hpp"
#include "util/logging.hpp"

namespace mercury {
namespace sim {

namespace {

/** Record-hold budget of the fallback descriptors (the planner's
 *  kHoldRecordBytes; compiled plans carry their own decision). */
constexpr uint64_t kFallbackHoldRecordBytes = 8ull << 20;

ComponentStats
gather(const DramSim &dram, const GlobalBufferSim &gb,
       const McacheSim &mc, const PeArraySim &pe)
{
    ComponentStats s;
    s.dram = dram.stats();
    s.gbuf = gb.stats();
    s.mcache = mc.stats();
    s.pe = pe.stats();
    return s;
}

/** after - before, field-wise (Sampled-fidelity extrapolation). */
ComponentStats
statsDelta(const ComponentStats &after, const ComponentStats &before)
{
    ComponentStats d;
    d.dram.requests = after.dram.requests - before.dram.requests;
    d.dram.bytes = after.dram.bytes - before.dram.bytes;
    d.dram.rowHits = after.dram.rowHits - before.dram.rowHits;
    d.dram.rowMisses = after.dram.rowMisses - before.dram.rowMisses;
    d.dram.bankConflictCycles =
        after.dram.bankConflictCycles - before.dram.bankConflictCycles;
    d.dram.busyCycles = after.dram.busyCycles - before.dram.busyCycles;
    d.gbuf.accesses = after.gbuf.accesses - before.gbuf.accesses;
    d.gbuf.bytes = after.gbuf.bytes - before.gbuf.bytes;
    d.gbuf.bankConflictCycles =
        after.gbuf.bankConflictCycles - before.gbuf.bankConflictCycles;
    d.gbuf.fills = after.gbuf.fills - before.gbuf.fills;
    d.gbuf.pendingStallCycles =
        after.gbuf.pendingStallCycles - before.gbuf.pendingStallCycles;
    d.gbuf.spillBytes = after.gbuf.spillBytes - before.gbuf.spillBytes;
    d.mcache.probes = after.mcache.probes - before.mcache.probes;
    d.mcache.hits = after.mcache.hits - before.mcache.hits;
    d.mcache.inserts = after.mcache.inserts - before.mcache.inserts;
    d.mcache.insertSerialCycles = after.mcache.insertSerialCycles -
                                  before.mcache.insertSerialCycles;
    d.pe.passes = after.pe.passes - before.pe.passes;
    d.pe.busyCycles = after.pe.busyCycles - before.pe.busyCycles;
    d.pe.memStallCycles =
        after.pe.memStallCycles - before.pe.memStallCycles;
    return d;
}

ComponentStats
statsScaled(const ComponentStats &d, uint64_t k)
{
    ComponentStats s;
    s.dram.requests = d.dram.requests * k;
    s.dram.bytes = d.dram.bytes * k;
    s.dram.rowHits = d.dram.rowHits * k;
    s.dram.rowMisses = d.dram.rowMisses * k;
    s.dram.bankConflictCycles = d.dram.bankConflictCycles * k;
    s.dram.busyCycles = d.dram.busyCycles * k;
    s.gbuf.accesses = d.gbuf.accesses * k;
    s.gbuf.bytes = d.gbuf.bytes * k;
    s.gbuf.bankConflictCycles = d.gbuf.bankConflictCycles * k;
    s.gbuf.fills = d.gbuf.fills * k;
    s.gbuf.pendingStallCycles = d.gbuf.pendingStallCycles * k;
    s.gbuf.spillBytes = d.gbuf.spillBytes * k;
    s.mcache.probes = d.mcache.probes * k;
    s.mcache.hits = d.mcache.hits * k;
    s.mcache.inserts = d.mcache.inserts * k;
    s.mcache.insertSerialCycles = d.mcache.insertSerialCycles * k;
    s.pe.passes = d.pe.passes * k;
    s.pe.busyCycles = d.pe.busyCycles * k;
    s.pe.memStallCycles = d.pe.memStallCycles * k;
    return s;
}

/** Descriptor a stack entry gets when no compiled plan covers it
 *  (unplannable topology) — the same geometry rules as
 *  RuntimePlanner::compile / exportPassDescriptors. */
PassDescriptor
synthDescriptor(const CostModel &model, const LayerShape &s,
                int64_t batch, int sig_bits, bool captures)
{
    PassDescriptor d;
    switch (s.type) {
    case LayerType::Conv:
        d.kind = StepOpKind::Conv;
        d.rows = s.vectorsPerChannel();
        d.vecDim = s.kernel * s.kernel;
        d.passes = batch * s.inChannels;
        d.inFlight = s.outChannels / std::max<int64_t>(1, s.groups);
        d.inputBytesPerPass = s.inH * s.inW * 4;
        d.inputTensorBytes = batch * s.inChannels * s.inH * s.inW * 4;
        break;
    case LayerType::FullyConnected:
        d.kind = StepOpKind::Dense;
        d.rows = batch;
        d.vecDim = s.inFeatures;
        d.passes = 1;
        d.inFlight = s.outFeatures;
        d.inputBytesPerPass = batch * s.inFeatures * 4;
        d.inputTensorBytes = d.inputBytesPerPass;
        break;
    case LayerType::Attention:
        d.kind = StepOpKind::Attention;
        d.rows = s.seqLen;
        d.vecDim = s.embedDim;
        d.passes = batch;
        d.inFlight = 1;
        d.inputBytesPerPass = s.seqLen * s.embedDim * 4;
        d.inputTensorBytes = batch * d.inputBytesPerPass;
        break;
    case LayerType::Pool:
        break;
    }
    if (captures && s.reusable()) {
        d.recordBytes = model.recordBytes(s, batch, sig_bits);
        d.holdRecord = d.recordBytes <= kFallbackHoldRecordBytes;
    }
    return d;
}

/** Address regions keeping layers (and their records) on disjoint
 *  DRAM rows: inputs and records of layer i never alias layer j's. */
uint64_t
inputRegion(size_t layer)
{
    return static_cast<uint64_t>(layer) << 28;
}

uint64_t
recordRegion(size_t layer)
{
    return (static_cast<uint64_t>(layer) << 28) | (1ull << 60);
}

/** Everything one simulated pass chain needs. */
struct PassWork
{
    uint64_t layerStart = 0;
    int64_t passes = 0;
    uint64_t service = 0; ///< compute+signature cycles, whole layer
    int64_t inputBytesPerPass = 0;
    uint64_t inputAddr = 0;
    bool resident = false;
    int64_t replayBytesPerPass = 0; ///< record read (gradient phase)
    uint64_t replayAddr = 0;
    uint64_t recordWriteBytesPerPass = 0; ///< record write (forward)
    uint64_t recordAddr = 0;
    uint64_t insertCycles = 0; ///< Dataflow cacheOverhead, whole layer
    int64_t mauPerPass = 0;
    int64_t rowsPerPass = 0;
    int64_t hitsPerPass = 0;
};

/**
 * Replay one layer's pass chain through the loop. Each pass is one
 * event: its input stream was issued at the previous pass's start
 * (double-buffered prefetch), it executes when operands arrive, and
 * its MAU inserts drain through the set queues before the next pass
 * may land. Under Sampled fidelity with more than two passes, passes
 * 0 (cold) and 1 (steady) run in full detail and the steady pass is
 * extrapolated across the rest. Returns the layer-end cycle.
 */
uint64_t
runLayerPasses(EventLoop &loop, DramSim &dram, GlobalBufferSim &gb,
               McacheSim &mc, PeArraySim &pe, const SimConfig &sim,
               const PassWork &w, ComponentStats &extra)
{
    pe.skipTo(w.layerStart);
    if (w.passes <= 0)
        return w.layerStart + w.service;
    const uint64_t per = w.service / static_cast<uint64_t>(w.passes);
    const uint64_t rem = w.service % static_cast<uint64_t>(w.passes);
    const uint64_t ins_per =
        w.insertCycles / static_cast<uint64_t>(w.passes);
    const uint64_t ins_rem =
        w.insertCycles % static_cast<uint64_t>(w.passes);

    const bool sampled =
        sim.fidelity == SimFidelity::Sampled && w.passes > 2;
    const int64_t sim_passes = sampled ? 2 : w.passes;

    uint64_t issue_at = w.layerStart;
    uint64_t last_end = w.layerStart;
    uint64_t end0 = w.layerStart;
    ComponentStats after0;
    for (int64_t k = 0; k < sim_passes; ++k) {
        uint64_t pass_start = issue_at;
        loop.schedule(issue_at, [&, k, issue_at]() {
            uint64_t mem = issue_at;
            if (w.inputBytesPerPass > 0)
                mem = gb.stream(
                    issue_at,
                    w.inputAddr + static_cast<uint64_t>(
                                      k * w.inputBytesPerPass),
                    w.inputBytesPerPass, w.resident,
                    sim.maxChunksPerPass);
            if (w.replayBytesPerPass > 0)
                mem = std::max(
                    mem, gb.stream(issue_at,
                                   w.replayAddr +
                                       static_cast<uint64_t>(
                                           k * w.replayBytesPerPass),
                                   w.replayBytesPerPass, false,
                                   sim.maxChunksPerPass));
            const uint64_t ready = std::max(w.layerStart, mem);
            const uint64_t svc = per + (k == 0 ? rem : 0);
            pass_start = std::max(ready, pe.freeAt());
            uint64_t end = pe.executePass(ready, svc);
            mc.probes(w.rowsPerPass, w.hitsPerPass);
            const uint64_t ins = ins_per + (k == 0 ? ins_rem : 0);
            if (w.mauPerPass > 0 || ins > 0) {
                // Insert serialization budget comes from the Dataflow
                // closed form (splits MAU across PE sets before the
                // per-set ceil), routed through the set queues.
                end = mc.drain(end, w.mauPerPass, ins);
                pe.skipTo(end);
            }
            if (w.recordWriteBytesPerPass > 0)
                dram.access(
                    end,
                    w.recordAddr + static_cast<uint64_t>(k) *
                                       w.recordWriteBytesPerPass,
                    static_cast<int64_t>(w.recordWriteBytesPerPass));
            last_end = end;
        });
        loop.run();
        // The next pass's stream prefetches from this pass's start.
        issue_at = pass_start;
        if (k == 0) {
            end0 = last_end;
            after0 = gather(dram, gb, mc, pe);
        }
    }

    if (sampled) {
        // Extrapolate the steady pass (cold effects stay un-scaled).
        const uint64_t steady_span = last_end - end0;
        const uint64_t more = static_cast<uint64_t>(w.passes - 2);
        last_end += steady_span * more;
        extra += statsScaled(
            statsDelta(gather(dram, gb, mc, pe), after0), more);
        pe.skipTo(last_end);
    }
    return last_end;
}

/**
 * The step simulation shared by both stepCost entry points: `descs`
 * holds one PassDescriptor per stack entry (pool entries carry a
 * default descriptor and replay as plain baseline spans).
 */
CostBreakdown
simulateStep(const CostModel &model, const std::vector<LayerShape> &stack,
             const std::vector<HitMix> &mixes,
             const std::vector<PassDescriptor> &descs, int64_t batch,
             int sig_bits)
{
    const AcceleratorConfig &cfg = model.config();
    const SimConfig &sim = cfg.sim;
    const bool captures = cfg.backwardReuse || cfg.weightGradReuse;
    const size_t n = stack.size();

    // Closed-form per-layer decompositions — the compute services.
    std::vector<LayerCycles> fwd(n), grad(n);
    for (size_t i = 0; i < n; ++i) {
        if (!stack[i].reusable()) {
            const uint64_t pool = model.baselineCycles(stack[i], batch);
            fwd[i].baseline = pool;
            fwd[i].computation = pool;
            continue;
        }
        fwd[i] = model.layerCost(stack[i], batch, mixes[i], sig_bits);
        if (captures)
            grad[i] = model.backwardCost(stack[i], batch, mixes[i],
                                         sig_bits, cfg.weightGradReuse);
    }

    // Fused conv→conv edges and hidden-signature windows: the
    // plan_model rule, verbatim, so the two backends always agree on
    // step structure.
    std::vector<uint64_t> hide(n, 0);
    int fused_edges = 0;
    uint64_t hidden_total = 0;
    int prev_conv = -1;
    for (size_t i = 0; i < n; ++i) {
        if (stack[i].type == LayerType::Pool)
            continue;
        if (stack[i].type != LayerType::Conv) {
            prev_conv = -1;
            continue;
        }
        if (prev_conv >= 0) {
            const size_t p = static_cast<size_t>(prev_conv);
            const int64_t pred_passes = descs[p].passes;
            const uint64_t window =
                pred_passes > 0
                    ? fwd[p].computation /
                          static_cast<uint64_t>(pred_passes)
                    : 0;
            hide[i] = std::min(window, fwd[i].signature);
            hidden_total += hide[i];
            ++fused_edges;
        }
        prev_conv = static_cast<int>(i);
    }

    EventLoop loop;
    DramSim dram(sim);
    GlobalBufferSim gb(sim, dram);
    McacheSim mc(sim, cfg.mcacheSets);
    PeArraySim pe;
    ComponentStats extra;

    uint64_t cursor = 0;
    uint64_t barrier_base = 0;
    uint64_t setup = 0;

    // Forward phase.
    for (size_t i = 0; i < n; ++i) {
        const LayerShape &shape = stack[i];
        if (!shape.reusable()) {
            cursor += fwd[i].computation;
            barrier_base += fwd[i].computation;
            continue;
        }
        const PassDescriptor &d = descs[i];
        setup +=
            kSetupCyclesPerLayer +
            kSetupCyclesPerPass * static_cast<uint64_t>(std::max<int64_t>(
                                      0, d.passes));
        if (captures && !d.holdRecord)
            gb.noteSpill(d.recordBytes);

        PassWork w;
        w.layerStart = cursor;
        w.passes = d.passes;
        const uint64_t S = fwd[i].computation + fwd[i].signature;
        w.service = S > hide[i] ? S - hide[i] : 0;
        w.inputBytesPerPass = d.inputBytesPerPass;
        w.inputAddr = inputRegion(i);
        w.resident = gb.resident(d.inputBytesPerPass);
        w.recordWriteBytesPerPass =
            captures && d.passes > 0
                ? d.recordBytes / static_cast<uint64_t>(d.passes)
                : 0;
        w.recordAddr = recordRegion(i);
        w.insertCycles = fwd[i].cacheOverhead;
        w.mauPerPass = mixes[i].mau;
        w.rowsPerPass = mixes[i].vectors;
        w.hitsPerPass = mixes[i].hit;
        const uint64_t end =
            runLayerPasses(loop, dram, gb, mc, pe, sim, w, extra);
        barrier_base += (end - cursor) + hide[i];
        cursor = end;
    }

    // Gradient phase: reverse replay of the captured records. The
    // record stream reads back the bytes the forward phase wrote
    // (held or spilled, the record lives DRAM-side — the analytic
    // model charges nothing here, so any exposed replay stall is
    // event-only signal).
    if (captures) {
        for (size_t r = n; r-- > 0;) {
            if (!stack[r].reusable())
                continue;
            const PassDescriptor &d = descs[r];
            PassWork w;
            w.layerStart = cursor;
            w.passes = d.passes;
            w.service = grad[r].mercuryTotal();
            w.replayBytesPerPass =
                d.passes > 0 ? static_cast<int64_t>(
                                   d.recordBytes /
                                   static_cast<uint64_t>(d.passes))
                             : 0;
            w.replayAddr = recordRegion(r);
            w.rowsPerPass = mixes[r].vectors;
            w.hitsPerPass = mixes[r].hit;
            const uint64_t end =
                runLayerPasses(loop, dram, gb, mc, pe, sim, w, extra);
            barrier_base += end - cursor;
            cursor = end;
        }
    }

    CostBreakdown out;
    out.components = gather(dram, gb, mc, pe);
    out.components += extra;
    out.cycles =
        aggregateStepCycles(model, stack, mixes, batch, sig_bits);
    out.memoryStallCycles = out.components.pe.memStallCycles;
    out.cycles.computation += out.memoryStallCycles;
    out.barrierCycles = barrier_base + setup;
    out.plannedCycles = cursor;
    out.setupCycles = setup;
    out.hiddenSignature = hidden_total;
    out.fusedEdges = fused_edges;
    return out;
}

} // namespace

EventModel::EventModel(const AcceleratorConfig &cfg) : CostModel(cfg) {}

CostBreakdown
EventModel::stepCost(const std::vector<LayerShape> &stack,
                     const std::vector<HitMix> &mixes, int64_t batch,
                     int sig_bits) const
{
    if (stack.size() != mixes.size())
        panic("EventModel::stepCost needs one mix per layer, got ",
              mixes.size(), " for ", stack.size());
    const bool captures = cfg_.backwardReuse || cfg_.weightGradReuse;

    // One workload definition: the stack compiles through the planner
    // and the plan's own descriptors drive the replay. Layers a plan
    // cannot cover (unplannable topology) fall back to synthesized
    // descriptors built by the same geometry rules.
    PlanConfig kcfg;
    kcfg.sigBits = sig_bits;
    kcfg.sets = cfg_.mcacheSets;
    kcfg.ways = cfg_.mcacheWays;
    kcfg.dataVersions = cfg_.mcacheDataVersions;
    kcfg.pipe.blockRows = cfg_.pipelineBlockRows;
    kcfg.pipe.shards = cfg_.pipelineShards;
    kcfg.pipe.threads = cfg_.pipelineThreads;
    kcfg.pipe.overlap = cfg_.overlapDetection;
    kcfg.pipe.persistent = cfg_.persistentCache;
    kcfg.backwardReuse = cfg_.backwardReuse;
    kcfg.weightGradReuse = cfg_.weightGradReuse;
    const std::shared_ptr<const StepPlan> plan = RuntimePlanner::compile(
        describeShapeStack(stack, batch), kcfg);

    std::vector<PassDescriptor> descs(stack.size());
    for (const PassDescriptor &d : exportPassDescriptors(*plan))
        if (d.layerId < descs.size()) // layerId == stack index here
            descs[static_cast<size_t>(d.layerId)] = d;
    for (size_t i = 0; i < stack.size(); ++i)
        if (stack[i].reusable() && descs[i].passes == 0)
            descs[i] = synthDescriptor(*this, stack[i], batch, sig_bits,
                                       captures);
    return simulateStep(*this, stack, mixes, descs, batch, sig_bits);
}

CostBreakdown
EventModel::stepCost(const StepPlan &plan,
                     const std::vector<HitMix> &mixes,
                     int sig_bits) const
{
    std::vector<size_t> reuse_index;
    const std::vector<LayerShape> stack =
        planLayerStack(plan, &reuse_index);
    std::vector<HitMix> full(stack.size());
    std::vector<PassDescriptor> descs(stack.size());
    const std::vector<PassDescriptor> pds = exportPassDescriptors(plan);
    for (size_t j = 0; j < reuse_index.size(); ++j) {
        if (j < mixes.size())
            full[reuse_index[j]] = mixes[j];
        if (j < pds.size())
            descs[reuse_index[j]] = pds[j];
    }
    return simulateStep(*this, stack, full, descs, plan.batch, sig_bits);
}

} // namespace sim
} // namespace mercury
