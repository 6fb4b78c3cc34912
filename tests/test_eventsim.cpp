/**
 * @file
 * Event-model backend tests (src/sim/event_model/ behind
 * sim/cost_model.hpp):
 *
 *  - component contracts: EventLoop (cycle, seq) determinism, DRAM
 *    row-buffer hit/miss and bank-conflict accounting, GlobalBuffer
 *    pending-slot (MSHR) exhaustion, MCACHE insert-queue
 *    serialization against the Dataflow arithmetic, PE-array memory
 *    stalls;
 *  - backend selection: SimConfig::backend and the
 *    MERCURY_SIM_BACKEND environment override;
 *  - the pinned analytic-vs-event agreement band on VGG-13 and
 *    MobileNetV2 forward-only points (the acceptance contract also
 *    enforced by bench/sweep_eventsim);
 *  - the step schedule both backends share: golden CostBreakdowns,
 *    event record bytes from CostModel::recordBytes, and the
 *    one-mix-per-layer check;
 *  - the printed component line's DRAM occupancy (a share of the
 *    banks' cycles).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "models/model_zoo.hpp"
#include "sim/cost_model.hpp"
#include "sim/cycle_model.hpp"
#include "sim/event_model/dram.hpp"
#include "sim/event_model/event_loop.hpp"
#include "sim/event_model/event_model.hpp"
#include "sim/event_model/global_buffer_sim.hpp"
#include "sim/event_model/mcache_sim.hpp"
#include "sim/event_model/pe_array_sim.hpp"

namespace mercury {
namespace {

// ---- EventLoop -------------------------------------------------------

TEST(EventLoop, FiresInCycleOrderRegardlessOfScheduleOrder)
{
    sim::EventLoop loop;
    std::vector<int> order;
    loop.schedule(30, [&] { order.push_back(3); });
    loop.schedule(10, [&] { order.push_back(1); });
    loop.schedule(20, [&] { order.push_back(2); });
    loop.run();
    ASSERT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 30u);
    EXPECT_EQ(loop.scheduledEvents(), 3u);
}

TEST(EventLoop, SameCycleEventsFireInScheduleOrder)
{
    sim::EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        loop.schedule(5, [&order, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, CallbacksMayScheduleFurtherEvents)
{
    sim::EventLoop loop;
    int fired = 0;
    loop.schedule(1, [&] {
        ++fired;
        loop.schedule(2, [&] { ++fired; });
    });
    loop.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(loop.empty());
}

// ---- DRAM ------------------------------------------------------------

TEST(DramSim, RowBufferHitIsCheaperThanMiss)
{
    SimConfig sim;
    sim::DramSim dram(sim);
    // Cold bank: row miss (precharge + activate + CAS).
    const uint64_t first = dram.access(0, 0, 64);
    EXPECT_EQ(first,
              static_cast<uint64_t>(sim.dramRowMissCycles) +
                  64 / static_cast<uint64_t>(sim.dramBusBytesPerCycle));
    EXPECT_EQ(dram.stats().rowMisses, 1u);
    // Same row, bank idle again: open-row hit (CAS only).
    const uint64_t t1 = first + 100;
    const uint64_t second = dram.access(t1, 128, 64);
    EXPECT_EQ(second - t1,
              static_cast<uint64_t>(sim.dramRowHitCycles) +
                  64 / static_cast<uint64_t>(sim.dramBusBytesPerCycle));
    EXPECT_EQ(dram.stats().rowHits, 1u);
    EXPECT_EQ(dram.stats().requests, 2u);
    EXPECT_EQ(dram.stats().bytes, 128u);
}

TEST(DramSim, BusyBankChargesBankConflictCycles)
{
    SimConfig sim;
    sim::DramSim dram(sim);
    // Two back-to-back accesses to the same row at the same issue
    // cycle: the second waits for the bank and the wait is counted.
    const uint64_t first = dram.access(0, 0, 64);
    dram.access(0, 64, 64);
    EXPECT_EQ(dram.stats().bankConflictCycles, first);
}

TEST(DramSim, RowChunksIssueAcrossBanksInParallel)
{
    SimConfig sim;
    sim::DramSim dram(sim);
    // Two full rows land in different banks (row interleaving), so
    // the two-row access completes with the slowest chunk, not the
    // sum of both.
    const int64_t two_rows = 2 * sim.dramRowBytes;
    const uint64_t end = dram.access(0, 0, two_rows);
    const uint64_t one_row_cycles =
        static_cast<uint64_t>(sim.dramRowMissCycles) +
        static_cast<uint64_t>(sim.dramRowBytes) /
            static_cast<uint64_t>(sim.dramBusBytesPerCycle);
    EXPECT_EQ(end, one_row_cycles);
    EXPECT_EQ(dram.stats().bankConflictCycles, 0u);
}

// ---- GlobalBuffer ----------------------------------------------------

TEST(GlobalBufferSim, ResidencyRuleIsDoubleBuffered)
{
    SimConfig sim;
    sim::DramSim dram(sim);
    sim::GlobalBufferSim gb(sim, dram);
    EXPECT_TRUE(gb.resident(
        static_cast<int64_t>(sim.gbCapacityBytes / 2)));
    EXPECT_FALSE(gb.resident(
        static_cast<int64_t>(sim.gbCapacityBytes / 2 + 1)));
    EXPECT_FALSE(gb.resident(0));
}

TEST(GlobalBufferSim, ResidentStreamNeverTouchesDram)
{
    SimConfig sim;
    sim::DramSim dram(sim);
    sim::GlobalBufferSim gb(sim, dram);
    gb.stream(0, 0, 4096, true, 8);
    EXPECT_EQ(dram.stats().requests, 0u);
    EXPECT_EQ(gb.stats().fills, 0u);
    EXPECT_EQ(gb.stats().bytes, 4096u);
}

TEST(GlobalBufferSim, ExhaustedPendingSlotsStall)
{
    SimConfig sim;
    sim.gbPendingSlots = 2;
    sim::DramSim dram(sim);
    sim::GlobalBufferSim gb(sim, dram);
    // More miss chunks than pending slots at one issue cycle: the
    // third chunk must wait for a slot, and the wait is counted.
    gb.stream(0, 0, 16 * 1024, false, 8);
    EXPECT_EQ(gb.stats().fills, 8u);
    EXPECT_GT(gb.stats().pendingStallCycles, 0u);

    // With ample slots the same stream never waits on one.
    SimConfig wide = sim;
    wide.gbPendingSlots = 64;
    sim::DramSim dram2(wide);
    sim::GlobalBufferSim gb2(wide, dram2);
    gb2.stream(0, 0, 16 * 1024, false, 8);
    EXPECT_EQ(gb2.stats().pendingStallCycles, 0u);
}

// ---- MCACHE ----------------------------------------------------------

TEST(McacheSim, InsertSerializationMatchesDataflowArithmetic)
{
    SimConfig sim;
    const int sets = 64;
    sim::McacheSim mc(sim, sets);
    const int64_t mau = 1000;
    const uint64_t end = mc.inserts(0, mau);
    // cacheInsertCycles * ceil(mau / sets): the §V set-queue bound,
    // the identical arithmetic to Dataflow::insertOverhead.
    const uint64_t expect =
        static_cast<uint64_t>(sim.cacheInsertCycles) *
        ceilDiv(static_cast<uint64_t>(mau),
                static_cast<uint64_t>(sets));
    EXPECT_EQ(end, expect);
    EXPECT_EQ(mc.stats().insertSerialCycles, expect);
    EXPECT_EQ(mc.stats().inserts, static_cast<uint64_t>(mau));
}

TEST(McacheSim, BackToBackPassesQueueBehindEachOther)
{
    SimConfig sim;
    sim::McacheSim mc(sim, 64);
    const uint64_t first = mc.inserts(0, 640);
    // Issued before the queues drained: serialized behind the first.
    const uint64_t second = mc.inserts(first / 2, 640);
    EXPECT_EQ(second, 2 * first);
}

TEST(McacheSim, DrainBooksSuppliedSerializationCycles)
{
    SimConfig sim;
    sim::McacheSim mc(sim, 64);
    const uint64_t end = mc.drain(100, 32, 17);
    EXPECT_EQ(end, 117u);
    EXPECT_EQ(mc.stats().insertSerialCycles, 17u);
    EXPECT_EQ(mc.stats().inserts, 32u);
    // Zero work is free.
    EXPECT_EQ(mc.drain(end, 0, 0), end);
}

// ---- PE array --------------------------------------------------------

TEST(PeArraySim, CountsMemoryStallsOnly)
{
    sim::PeArraySim pe;
    pe.skipTo(0);
    // Operands late: the idle gap is a memory stall.
    const uint64_t end = pe.executePass(50, 100);
    EXPECT_EQ(end, 150u);
    EXPECT_EQ(pe.stats().memStallCycles, 50u);
    // Operands ready before the array frees: no stall.
    pe.executePass(100, 10);
    EXPECT_EQ(pe.stats().memStallCycles, 50u);
    // skipTo() absorbs inter-layer scheduling gaps.
    pe.skipTo(1000);
    pe.executePass(1000, 5);
    EXPECT_EQ(pe.stats().memStallCycles, 50u);
    EXPECT_EQ(pe.stats().passes, 3u);
}

// ---- Backend selection -----------------------------------------------

TEST(CostModelFactory, SelectsBackendFromConfig)
{
    AcceleratorConfig cfg;
    EXPECT_EQ(sim::CostModel::create(cfg)->backend(),
              SimBackend::Analytic);
    cfg.sim.backend = SimBackend::Event;
    EXPECT_EQ(sim::CostModel::create(cfg)->backend(),
              SimBackend::Event);
    EXPECT_STREQ(sim::resolvedBackendName(cfg), "event");
}

TEST(CostModelFactory, EnvironmentOverridesConfig)
{
    AcceleratorConfig cfg; // analytic by default
    ::setenv("MERCURY_SIM_BACKEND", "event", 1);
    EXPECT_EQ(sim::CostModel::create(cfg)->backend(),
              SimBackend::Event);
    ::setenv("MERCURY_SIM_BACKEND", "analytic", 1);
    cfg.sim.backend = SimBackend::Event;
    EXPECT_EQ(sim::CostModel::create(cfg)->backend(),
              SimBackend::Analytic);
    ::unsetenv("MERCURY_SIM_BACKEND");
}

// ---- Analytic-vs-event agreement (the pinned validation points) ------

/** Max |event - analytic| / analytic allowed on the forward-only
 *  points. Forward-only configs are compute-bound, so the event
 *  replay adds only cold-stream stalls — measured max ~0.004. */
constexpr double kAgreementBand = 0.01;

void
expectAgreement(const ModelConfig &model, double hit_frac,
                int64_t batch)
{
    AcceleratorConfig cfg; // forward-only (no replay knobs)
    std::vector<HitMix> mixes;
    for (const LayerShape &s : model.layers)
        mixes.push_back(
            HitMix::fromFractions(s.vectorsPerChannel(), hit_frac));
    cfg.sim.backend = SimBackend::Analytic;
    const std::unique_ptr<sim::CostModel> analytic =
        sim::CostModel::create(cfg);
    cfg.sim.backend = SimBackend::Event;
    const std::unique_ptr<sim::CostModel> event =
        sim::CostModel::create(cfg);

    const sim::CostBreakdown a =
        analytic->stepCost(model.layers, mixes, batch, 20);
    const sim::CostBreakdown e =
        event->stepCost(model.layers, mixes, batch, 20);

    ASSERT_GT(a.plannedCycles, 0u);
    const double dev =
        std::fabs(static_cast<double>(e.plannedCycles) -
                  static_cast<double>(a.plannedCycles)) /
        static_cast<double>(a.plannedCycles);
    EXPECT_LE(dev, kAgreementBand)
        << model.name << " hit=" << hit_frac << ": analytic "
        << a.plannedCycles << " vs event " << e.plannedCycles;
    // Step structure must match exactly — both backends derive it
    // from the same plan-model fusion rule.
    EXPECT_EQ(e.fusedEdges, a.fusedEdges) << model.name;
    EXPECT_EQ(e.hiddenSignature, a.hiddenSignature) << model.name;
    EXPECT_EQ(e.setupCycles, a.setupCycles) << model.name;
    // The aggregate totals stay within the band too.
    const double total_dev =
        std::fabs(static_cast<double>(e.cycles.mercuryTotal()) -
                  static_cast<double>(a.cycles.mercuryTotal())) /
        static_cast<double>(a.cycles.mercuryTotal());
    EXPECT_LE(total_dev, kAgreementBand) << model.name;
}

TEST(Agreement, Vgg13PinnedPoints)
{
    expectAgreement(vgg13(), 0.86, 4);
    expectAgreement(vgg13(), 0.40, 4);
}

TEST(Agreement, MobileNetV2PinnedPoints)
{
    expectAgreement(mobilenetV2(), 0.86, 4);
    expectAgreement(mobilenetV2(), 0.40, 4);
}

TEST(Agreement, SampledFidelityTracksPerPass)
{
    // Sampled fidelity replays two passes per layer and extrapolates;
    // on a compute-bound point it must land within the same band.
    AcceleratorConfig cfg;
    cfg.sim.backend = SimBackend::Event;
    const ModelConfig model = vgg13();
    std::vector<HitMix> mixes;
    for (const LayerShape &s : model.layers)
        mixes.push_back(
            HitMix::fromFractions(s.vectorsPerChannel(), 0.86));
    const std::unique_ptr<sim::CostModel> per_pass =
        sim::CostModel::create(cfg);
    cfg.sim.fidelity = SimFidelity::Sampled;
    const std::unique_ptr<sim::CostModel> sampled =
        sim::CostModel::create(cfg);
    const sim::CostBreakdown full =
        per_pass->stepCost(model.layers, mixes, 4, 20);
    const sim::CostBreakdown fast =
        sampled->stepCost(model.layers, mixes, 4, 20);
    const double dev =
        std::fabs(static_cast<double>(fast.plannedCycles) -
                  static_cast<double>(full.plannedCycles)) /
        static_cast<double>(full.plannedCycles);
    EXPECT_LE(dev, kAgreementBand);
}

TEST(Agreement, EventBackendSeesRecordReplayTraffic)
{
    // With the gradient-replay knobs on, the event backend charges
    // the record write/replay DRAM traffic the analytic model is
    // silent about — the deliberate divergence regime.
    AcceleratorConfig cfg;
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    cfg.sim.backend = SimBackend::Event;
    const ModelConfig model = mobilenetV2();
    std::vector<HitMix> mixes;
    for (const LayerShape &s : model.layers)
        mixes.push_back(
            HitMix::fromFractions(s.vectorsPerChannel(), 0.40));
    const std::unique_ptr<sim::CostModel> event =
        sim::CostModel::create(cfg);
    const sim::CostBreakdown e =
        event->stepCost(model.layers, mixes, 4, 20);
    EXPECT_GT(e.memoryStallCycles, 0u);
    EXPECT_GT(e.components.dram.bytes, 0u);
}

// ---- The step schedule both backends share ---------------------------

/** Every CostBreakdown field of one (model, backend, replay) step at
 *  batch 4, 20 bits, hit fraction 0.4 on every layer, Sampled
 *  fidelity. */
struct GoldenStep
{
    ModelConfig (*model)();
    SimBackend backend;
    bool replay; ///< backwardReuse and weightGradReuse both on
    LayerCycles cycles;
    uint64_t barrierCycles;
    uint64_t plannedCycles;
    uint64_t setupCycles;
    uint64_t hiddenSignature;
    int fusedEdges;
    uint64_t memoryStallCycles;
    uint64_t spillBytes;
    uint64_t dramBytes;
};

/** Names a point in test output, e.g. "(VGG-13, event, replay)". */
void
PrintTo(const GoldenStep &g, std::ostream *os)
{
    *os << "(" << g.model().name << ", " << simBackendName(g.backend) << ", "
        << (g.replay ? "replay" : "forward") << ")";
}

const GoldenStep kGoldenSteps[] = {
    {vgg13, SimBackend::Analytic, false,
     {289165908, 179534556, 34126250, 295703},
     214586717, 213556472, 630208, 400037, 9, 0, 0, 0},
    {vgg13, SimBackend::Analytic, true,
     {867206210, 550145967, 34496612, 295703},
     585568490, 584538245, 630208, 400037, 9, 0, 0, 0},
    {vgg13, SimBackend::Event, false,
     {289165908, 179547942, 34126250, 295703},
     214600103, 213569858, 630208, 400037, 9, 13386, 0, 54321152},
    {vgg13, SimBackend::Event, true,
     {867206210, 552851317, 34496612, 295703},
     588273840, 587243595, 630208, 400037, 9, 2705350, 386154496, 863158584},
    {mobilenetV2, SimBackend::Analytic, false,
     {7366077, 4536779, 13805320, 100803},
     22509526, 18414222, 4066624, 28680, 51, 0, 0, 0},
    {mobilenetV2, SimBackend::Analytic, true,
     {22098231, 13681640, 13918922, 100803},
     31767989, 27672685, 4066624, 28680, 51, 0, 0, 0},
    {mobilenetV2, SimBackend::Event, false,
     {7366077, 4545230, 13805320, 100803},
     22517977, 18422673, 4066624, 28680, 51, 8451, 0, 2408448},
    // Spills exactly its records above the hold threshold (see
    // EventSpillIsRecordBytesAboveHoldThreshold).
    {mobilenetV2, SimBackend::Event, true,
     {22098231, 15025670, 13918922, 100803},
     33112019, 29016715, 4066624, 28680, 51, 1344030, 60010496, 250401512},
    {resnet50, SimBackend::Analytic, false,
     {121237254, 75579096, 11661598, 60603},
     93096945, 87114302, 5795648, 186995, 52, 0, 0, 0},
    {resnet50, SimBackend::Analytic, true,
     {363628788, 228723945, 11730810, 60603},
     246311006, 240328363, 5795648, 186995, 52, 0, 0, 0},
    {resnet50, SimBackend::Event, false,
     {121237254, 75587369, 11661598, 60603},
     93105218, 87122575, 5795648, 186995, 52, 8273, 0, 2408448},
    {resnet50, SimBackend::Event, true,
     {363628788, 228807360, 11730810, 60603},
     246394421, 240411778, 5795648, 186995, 52, 83415, 31309824, 153385576},
    {transformer, SimBackend::Analytic, false,
     {3249167, 3249167, 108713, 49},
     3381545, 3357929, 23616, 0, 0, 0, 0, 0},
    {transformer, SimBackend::Analytic, true,
     {9747501, 9747501, 108787, 49},
     9879953, 9856337, 23616, 0, 0, 0, 0, 0},
    {transformer, SimBackend::Event, false,
     {3249167, 3289423, 108713, 49},
     3421801, 3398185, 23616, 0, 0, 40256, 0, 3145728},
    {transformer, SimBackend::Event, true,
     {9747501, 9841847, 108787, 49},
     9974299, 9950683, 23616, 0, 0, 94346, 0, 3188264},
};

class StepCostGolden : public ::testing::TestWithParam<GoldenStep>
{
};

TEST_P(StepCostGolden, PinsEveryField)
{
    const GoldenStep &g = GetParam();
    AcceleratorConfig cfg;
    cfg.backwardReuse = g.replay;
    cfg.weightGradReuse = g.replay;
    cfg.sim.backend = g.backend;
    cfg.sim.fidelity = SimFidelity::Sampled;
    const ModelConfig model = g.model();
    std::vector<HitMix> mixes;
    for (const LayerShape &s : model.layers)
        mixes.push_back(HitMix::fromFractions(s.vectorsPerChannel(), 0.4));
    const sim::CostBreakdown c =
        sim::CostModel::create(cfg)->stepCost(model.layers, mixes, 4, 20);
    EXPECT_EQ(c.cycles.baseline, g.cycles.baseline);
    EXPECT_EQ(c.cycles.computation, g.cycles.computation);
    EXPECT_EQ(c.cycles.signature, g.cycles.signature);
    EXPECT_EQ(c.cycles.cacheOverhead, g.cycles.cacheOverhead);
    EXPECT_EQ(c.barrierCycles, g.barrierCycles);
    EXPECT_EQ(c.plannedCycles, g.plannedCycles);
    EXPECT_EQ(c.setupCycles, g.setupCycles);
    EXPECT_EQ(c.hiddenSignature, g.hiddenSignature);
    EXPECT_EQ(c.fusedEdges, g.fusedEdges);
    EXPECT_EQ(c.memoryStallCycles, g.memoryStallCycles);
    EXPECT_EQ(c.components.gbuf.spillBytes, g.spillBytes);
    EXPECT_EQ(c.components.dram.bytes, g.dramBytes);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, StepCostGolden,
                         ::testing::ValuesIn(kGoldenSteps));

TEST(StepSchedule, EventSpillIsRecordBytesAboveHoldThreshold)
{
    // With replay on, the event backend spills exactly the layers
    // whose CostModel::recordBytes exceed the hold threshold, on every
    // model-zoo stack.
    AcceleratorConfig cfg;
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    cfg.sim.backend = SimBackend::Event;
    cfg.sim.fidelity = SimFidelity::Sampled;
    const std::unique_ptr<sim::CostModel> event =
        sim::CostModel::create(cfg);
    for (const ModelConfig &model : allModels()) {
        std::vector<HitMix> mixes;
        uint64_t spilled = 0;
        for (const LayerShape &s : model.layers) {
            mixes.push_back(
                HitMix::fromFractions(s.vectorsPerChannel(), 0.4));
            const uint64_t bytes = event->recordBytes(s, 4, 20);
            if (bytes > sim::kHoldRecordBytes)
                spilled += bytes;
        }
        const sim::CostBreakdown e =
            event->stepCost(model.layers, mixes, 4, 20);
        EXPECT_EQ(e.components.gbuf.spillBytes, spilled) << model.name;
    }
}

TEST(ComponentStats, DramOccupancyIsAShareOfBankCycles)
{
    // sweep_eventsim's component line: MobileNetV2, replay on, event
    // backend at Sampled fidelity, batch 8, hit 0.86. Busy cycles sum
    // over the DRAM banks, so the printed occupancy divides by the
    // banks' cycles and reads at most 100%.
    AcceleratorConfig cfg;
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    cfg.sim.backend = SimBackend::Event;
    cfg.sim.fidelity = SimFidelity::Sampled;
    const ModelConfig model = mobilenetV2();
    std::vector<HitMix> mixes;
    for (const LayerShape &s : model.layers)
        mixes.push_back(
            HitMix::fromFractions(s.vectorsPerChannel(), 0.86));
    const sim::CostBreakdown c =
        sim::CostModel::create(cfg)->stepCost(model.layers, mixes, 8, 20);
    ASSERT_GT(c.components.dram.busyCycles, c.plannedCycles)
        << "the banks must overlap for the check to bite";

    ::testing::internal::CaptureStdout();
    c.components.print(c.plannedCycles, cfg.sim.dramBanks);
    std::fflush(stdout);
    const std::string out = ::testing::internal::GetCapturedStdout();
    const size_t dram = out.find("dram:");
    ASSERT_NE(dram, std::string::npos) << out;
    const size_t at = out.find("occupancy ", dram);
    ASSERT_NE(at, std::string::npos) << out;
    const double pct = std::atof(out.c_str() + at + 10);
    EXPECT_GT(pct, 0.0) << out;
    EXPECT_LE(pct, 100.0) << out;
}

TEST(StepScheduleDeathTest, ChecksOneMixPerLayerBeforeReadingAny)
{
    const ModelConfig model = vgg13();
    const std::vector<HitMix> one_mix = {HitMix::fromFractions(
        model.layers[0].vectorsPerChannel(), 0.4)};
    for (SimBackend backend : {SimBackend::Analytic, SimBackend::Event}) {
        AcceleratorConfig cfg;
        cfg.sim.backend = backend;
        const std::unique_ptr<sim::CostModel> m =
            sim::CostModel::create(cfg);
        EXPECT_DEATH(m->stepCost(model.layers, one_mix, 4, 20),
                     "one mix per layer")
            << simBackendName(backend);
    }
}

} // namespace
} // namespace mercury
