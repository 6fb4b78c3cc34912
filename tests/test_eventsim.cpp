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
 *  - workload unification: stepCost(StepPlan) replays the same
 *    descriptors as stepCost(stack), and
 *    describeShapeStack/shapesFromStepDesc round-trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/runtime_planner.hpp"
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

// ---- Analytic facade equivalence -------------------------------------

TEST(AnalyticModel, StepCostMatchesPlanModelFreeFunction)
{
    AcceleratorConfig cfg;
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    const ModelConfig model = vgg13();
    std::vector<HitMix> mixes;
    for (const LayerShape &s : model.layers)
        mixes.push_back(
            HitMix::fromFractions(s.vectorsPerChannel(), 0.4));
    const std::unique_ptr<sim::CostModel> analytic =
        sim::CostModel::create(cfg);
    const sim::CostBreakdown c =
        analytic->stepCost(model.layers, mixes, 4, 20);
    const PlannedStepModel m =
        modelPlannedStep(cfg, model.layers, mixes, 4, 20);
    EXPECT_EQ(c.barrierCycles, m.barrierCycles);
    EXPECT_EQ(c.plannedCycles, m.plannedCycles);
    EXPECT_EQ(c.setupCycles, m.setupCycles);
    EXPECT_EQ(c.hiddenSignature, m.hiddenSignature);
    EXPECT_EQ(c.fusedEdges, m.fusedEdges);
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

// ---- Workload unification --------------------------------------------

TEST(WorkloadUnification, PlanAndStackOverloadsAgreeOnPoolFreeStack)
{
    // A pool-free conv chain: planLayerStack reconstructs the exact
    // stack, so the two stepCost entry points replay identical
    // descriptors and must agree cycle-for-cycle.
    const std::vector<LayerShape> stack = {
        LayerShape::conv("c0", 3, 16, 16, 16, 3, 1, 1),
        LayerShape::conv("c1", 16, 16, 16, 16, 3, 1, 1),
        LayerShape::fc("fc", 16 * 16 * 16, 10),
    };
    std::vector<HitMix> mixes;
    for (const LayerShape &s : stack)
        mixes.push_back(
            HitMix::fromFractions(s.vectorsPerChannel(), 0.5));

    AcceleratorConfig cfg;
    cfg.sim.backend = SimBackend::Event;
    const std::unique_ptr<sim::CostModel> event =
        sim::CostModel::create(cfg);

    PlanConfig kcfg;
    kcfg.sigBits = 20;
    kcfg.sets = cfg.mcacheSets;
    kcfg.ways = cfg.mcacheWays;
    kcfg.dataVersions = cfg.mcacheDataVersions;
    const std::shared_ptr<const StepPlan> plan =
        RuntimePlanner::compile(describeShapeStack(stack, 4), kcfg);
    ASSERT_TRUE(plan->plannable);
    ASSERT_EQ(plan->layers.size(), stack.size());

    const sim::CostBreakdown from_stack =
        event->stepCost(stack, mixes, 4, 20);
    const sim::CostBreakdown from_plan =
        event->stepCost(*plan, mixes, 20);
    EXPECT_EQ(from_stack.plannedCycles, from_plan.plannedCycles);
    EXPECT_EQ(from_stack.barrierCycles, from_plan.barrierCycles);
    EXPECT_EQ(from_stack.fusedEdges, from_plan.fusedEdges);
    EXPECT_EQ(from_stack.hiddenSignature, from_plan.hiddenSignature);
}

TEST(WorkloadUnification, DescribeShapeStackRoundTrips)
{
    const std::vector<LayerShape> stack = {
        LayerShape::conv("c0", 3, 32, 32, 32, 3, 1, 1),
        LayerShape::pool("p0", 32, 32, 32, 2, 2),
        LayerShape::conv("c1", 32, 64, 16, 16, 3, 1, 1),
        LayerShape::fc("fc", 64 * 16 * 16, 10),
    };
    const StepDescBuilder desc = describeShapeStack(stack, 4);
    const std::vector<LayerShape> back = shapesFromStepDesc(desc);
    ASSERT_EQ(back.size(), stack.size());
    for (size_t i = 0; i < stack.size(); ++i) {
        EXPECT_EQ(back[i].type, stack[i].type) << i;
        EXPECT_EQ(back[i].inChannels, stack[i].inChannels) << i;
        EXPECT_EQ(back[i].outChannels, stack[i].outChannels) << i;
        EXPECT_EQ(back[i].inH, stack[i].inH) << i;
        EXPECT_EQ(back[i].inW, stack[i].inW) << i;
        EXPECT_EQ(back[i].kernel, stack[i].kernel) << i;
        EXPECT_EQ(back[i].inFeatures, stack[i].inFeatures) << i;
        EXPECT_EQ(back[i].outFeatures, stack[i].outFeatures) << i;
    }
}

TEST(WorkloadUnification, ExportedDescriptorsMatchPlanGeometry)
{
    const std::vector<LayerShape> stack = {
        LayerShape::conv("c0", 3, 16, 28, 28, 3, 1, 1),
        LayerShape::conv("c1", 16, 32, 28, 28, 3, 1, 1),
    };
    PlanConfig kcfg;
    kcfg.sigBits = 16;
    const std::shared_ptr<const StepPlan> plan =
        RuntimePlanner::compile(describeShapeStack(stack, 2), kcfg);
    ASSERT_TRUE(plan->plannable);
    const std::vector<PassDescriptor> descs =
        exportPassDescriptors(*plan);
    ASSERT_EQ(descs.size(), 2u);
    EXPECT_EQ(descs[0].passes, 2 * 3);  // batch x inChannels
    EXPECT_EQ(descs[1].passes, 2 * 16);
    EXPECT_EQ(descs[0].inputBytesPerPass, 28 * 28 * 4);
    EXPECT_EQ(descs[0].inputTensorBytes, 2 * 3 * 28 * 28 * 4);
    EXPECT_EQ(descs[1].nextConv, -1);
    EXPECT_EQ(descs[1].prevConv, 0);
}

} // namespace
} // namespace mercury
