#include "sim/event_model/event_model.hpp"

#include <algorithm>

#include "sim/event_model/dram.hpp"
#include "sim/event_model/event_loop.hpp"
#include "sim/event_model/global_buffer_sim.hpp"
#include "sim/event_model/mcache_sim.hpp"
#include "sim/event_model/pe_array_sim.hpp"
#include "util/logging.hpp"

namespace mercury {
namespace sim {

namespace {

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

} // namespace

EventModel::EventModel(const AcceleratorConfig &cfg) : CostModel(cfg) {}

CostBreakdown
EventModel::stepCost(const std::vector<LayerShape> &stack,
                     const std::vector<HitMix> &mixes, int64_t batch,
                     int sig_bits) const
{
    const StepSchedule sched = scheduleStep(stack, mixes, batch, sig_bits);
    const SimConfig &sim = cfg_.sim;
    const bool captures = cfg_.backwardReuse || cfg_.weightGradReuse;
    const size_t n = stack.size();

    EventLoop loop;
    DramSim dram(sim);
    GlobalBufferSim gb(sim, dram);
    McacheSim mc(sim, cfg_.mcacheSets);
    PeArraySim pe;
    ComponentStats extra;

    uint64_t cursor = 0;
    uint64_t barrier_base = 0;

    // Forward phase.
    for (size_t i = 0; i < n; ++i) {
        const LayerStep &l = sched.layers[i];
        if (!stack[i].reusable()) {
            cursor += l.forward.computation;
            barrier_base += l.forward.computation;
            continue;
        }
        if (!l.holdRecord)
            gb.noteSpill(l.recordBytes);

        PassWork w;
        w.layerStart = cursor;
        w.passes = l.passes;
        const uint64_t S = l.forward.computation + l.forward.signature;
        w.service = S > l.hiddenSignature ? S - l.hiddenSignature : 0;
        w.inputBytesPerPass = l.inputBytesPerPass;
        w.inputAddr = inputRegion(i);
        w.resident = gb.resident(l.inputBytesPerPass);
        w.recordWriteBytesPerPass =
            l.passes > 0 ? l.recordBytes / static_cast<uint64_t>(l.passes)
                         : 0;
        w.recordAddr = recordRegion(i);
        w.insertCycles = l.forward.cacheOverhead;
        w.mauPerPass = mixes[i].mau;
        w.rowsPerPass = mixes[i].vectors;
        w.hitsPerPass = mixes[i].hit;
        const uint64_t end =
            runLayerPasses(loop, dram, gb, mc, pe, sim, w, extra);
        barrier_base += (end - cursor) + l.hiddenSignature;
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
            const LayerStep &l = sched.layers[r];
            PassWork w;
            w.layerStart = cursor;
            w.passes = l.passes;
            w.service = l.gradient.mercuryTotal();
            w.replayBytesPerPass =
                l.passes > 0 ? static_cast<int64_t>(
                                   l.recordBytes /
                                   static_cast<uint64_t>(l.passes))
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
    out.cycles = sched.cycles;
    out.memoryStallCycles = out.components.pe.memStallCycles;
    out.cycles.computation += out.memoryStallCycles;
    out.barrierCycles = barrier_base + sched.setupCycles;
    out.plannedCycles = cursor;
    out.setupCycles = sched.setupCycles;
    out.hiddenSignature = sched.hiddenSignature;
    out.fusedEdges = sched.fusedEdges;
    return out;
}

} // namespace sim
} // namespace mercury
