/**
 * @file
 * sweep_eventsim: the event-driven memory-hierarchy backend
 * (src/sim/event_model/) validated against the closed-form analytic
 * backend and swept over the knobs only an event sim can see.
 *
 *  - Phase 1 (gated, FATAL): analytic-vs-event agreement on the
 *    pinned VGG-13 and MobileNetV2 validation points. Forward-only
 *    configs are compute-bound, so the event replay must land within
 *    kAgreementBand of the closed forms — the structural fields
 *    (fused edges, hidden signature cycles) must match exactly.
 *  - Phase 2: the event backend across the three dataflows (the same
 *    sweep Fig. 18 runs analytically).
 *  - Phase 3: MCACHE x GlobalBuffer sizing at ImageNet scale with the
 *    gradient-replay knobs on and Sampled fidelity — the regime where
 *    record write/replay traffic is real and the analytic model is
 *    silent, i.e. the event backend's own signal.
 *
 * MERCURY_SIM_BACKEND does not change this bench: both backends are
 * constructed explicitly because the comparison is the product.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/kernels/kernels.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_model/event_model.hpp"

namespace mercury {
namespace bench {
namespace {

/** Max |event - analytic| / analytic on the pinned forward points.
 *  Measured headroom: worst observed deviation is ~0.004 (MobileNetV2
 *  cold-stream stalls); the band is 2.5x that. */
constexpr double kAgreementBand = 0.01;

/** One synthetic channel-pass mix per layer at a fixed hit rate. */
std::vector<HitMix>
mixesFor(const ModelConfig &model, double hit_frac)
{
    std::vector<HitMix> mixes;
    for (const LayerShape &shape : model.layers)
        mixes.push_back(
            HitMix::fromFractions(shape.vectorsPerChannel(), hit_frac));
    return mixes;
}

struct AgreementPoint
{
    sim::CostBreakdown analytic;
    sim::CostBreakdown event;
    double dev = 0.0; ///< planned-cycle deviation
};

AgreementPoint
compareBackends(AcceleratorConfig cfg, const ModelConfig &model,
                double hit_frac, int64_t batch, int sig_bits)
{
    const std::vector<HitMix> mixes = mixesFor(model, hit_frac);
    cfg.sim.backend = SimBackend::Analytic;
    const std::unique_ptr<sim::CostModel> analytic =
        sim::CostModel::create(cfg);
    cfg.sim.backend = SimBackend::Event;
    const std::unique_ptr<sim::CostModel> event =
        sim::CostModel::create(cfg);

    AgreementPoint p;
    p.analytic =
        analytic->stepCost(model.layers, mixes, batch, sig_bits);
    p.event = event->stepCost(model.layers, mixes, batch, sig_bits);
    p.dev = p.analytic.plannedCycles > 0
                ? std::fabs(static_cast<double>(p.event.plannedCycles) -
                            static_cast<double>(p.analytic.plannedCycles)) /
                      static_cast<double>(p.analytic.plannedCycles)
                : 0.0;
    return p;
}

int
run()
{
    const bool smoke_mode = smoke();
    const int64_t batch = smoke_mode ? 2 : 8;
    const int kBits = 20;

    banner("sweep_eventsim: event-driven memory-hierarchy backend",
           "event replay agrees with the closed forms where compute "
           "is the bottleneck, and exposes record-replay / buffer "
           "contention the closed forms cannot see");

    // ---- Phase 1: pinned analytic-vs-event agreement --------------
    Table t1("analytic vs event, forward-only (gated band " +
             std::to_string(kAgreementBand) + ")");
    t1.header({"model", "hit", "analytic-planned", "event-planned",
               "dev", "stall-cyc"});
    double vgg_dev = 0.0, mob_dev = 0.0;
    double vgg_speedup = 0.0, mob_speedup = 0.0;
    struct Point
    {
        const char *name;
        ModelConfig model;
        double hit;
        double *max_dev;
        double *speedup;
    };
    const std::vector<Point> points = {
        {"vgg13", vgg13(), 0.86, &vgg_dev, &vgg_speedup},
        {"vgg13", vgg13(), 0.40, &vgg_dev, nullptr},
        {"mobilenet_v2", mobilenetV2(), 0.86, &mob_dev, &mob_speedup},
        {"mobilenet_v2", mobilenetV2(), 0.40, &mob_dev, nullptr},
    };
    for (const Point &pt : points) {
        AcceleratorConfig cfg; // forward-only: compute-bound regime
        const AgreementPoint p =
            compareBackends(cfg, pt.model, pt.hit, batch, kBits);
        t1.row({pt.name, Table::num(pt.hit, 2),
                std::to_string(p.analytic.plannedCycles),
                std::to_string(p.event.plannedCycles),
                Table::num(p.dev, 5),
                std::to_string(p.event.memoryStallCycles)});
        *pt.max_dev = std::max(*pt.max_dev, p.dev);
        if (pt.speedup)
            *pt.speedup = p.event.speedup();
        if (p.dev > kAgreementBand) {
            std::printf("FAIL: %s hit=%.2f: event deviates %.5f from "
                        "the analytic backend (band %.3f)\n",
                        pt.name, pt.hit, p.dev, kAgreementBand);
            return 1;
        }
        if (p.event.fusedEdges != p.analytic.fusedEdges ||
            p.event.hiddenSignature != p.analytic.hiddenSignature) {
            std::printf("FAIL: %s hit=%.2f: step structure diverged "
                        "(fused %d vs %d, hidden %llu vs %llu)\n",
                        pt.name, pt.hit, p.event.fusedEdges,
                        p.analytic.fusedEdges,
                        static_cast<unsigned long long>(
                            p.event.hiddenSignature),
                        static_cast<unsigned long long>(
                            p.analytic.hiddenSignature));
            return 1;
        }
    }
    t1.print();

    // ---- Phase 2: dataflow sweep under the event backend ----------
    Table t2("event backend across dataflows (vgg13, hit 0.86)");
    t2.header({"dataflow", "event-speedup", "planned-cycles",
               "stall-cyc"});
    double is_speedup = 0.0, ws_speedup = 0.0;
    for (DataflowKind kind :
         {DataflowKind::RowStationary, DataflowKind::InputStationary,
          DataflowKind::WeightStationary}) {
        AcceleratorConfig cfg;
        cfg.dataflow = kind;
        cfg.sim.backend = SimBackend::Event;
        const std::unique_ptr<sim::CostModel> event =
            sim::CostModel::create(cfg);
        const ModelConfig model = vgg13();
        const sim::CostBreakdown c = event->stepCost(
            model.layers, mixesFor(model, 0.86), batch, kBits);
        t2.row({dataflowName(kind), Table::num(c.speedup(), 3),
                std::to_string(c.plannedCycles),
                std::to_string(c.memoryStallCycles)});
        if (kind == DataflowKind::InputStationary)
            is_speedup = c.speedup();
        if (kind == DataflowKind::WeightStationary)
            ws_speedup = c.speedup();
    }
    t2.print();

    // ---- Phase 3: MCACHE x GlobalBuffer sizing (event-only) -------
    // Gradient replay on: the forward pass writes SignatureRecords
    // and the backward sweep streams them back, so shrinking the
    // global buffer turns record traffic into exposed DRAM stalls.
    // Sampled fidelity replays two passes per layer in full detail
    // and extrapolates — the ImageNet-scale sweep setting.
    Table t3("MCACHE entries x GB capacity (mobilenet_v2, replay on, "
             "Sampled fidelity): stall fraction of planned cycles");
    t3.header({"entries", "gb-27KB", "gb-108KB", "gb-432KB",
               "insert-serial-cyc"});
    const ModelConfig mob = mobilenetV2();
    for (int entries : {512, 1024, 2048}) {
        std::vector<std::string> row{std::to_string(entries)};
        uint64_t insert_serial = 0;
        for (int64_t gb_kb : {27, 108, 432}) {
            AcceleratorConfig cfg;
            cfg.mcacheWays = 16;
            cfg.mcacheSets = std::max(entries / 16, 1);
            cfg.backwardReuse = true;
            cfg.weightGradReuse = true;
            cfg.sim.backend = SimBackend::Event;
            cfg.sim.fidelity = SimFidelity::Sampled;
            cfg.sim.gbCapacityBytes = gb_kb * 1024;
            const std::unique_ptr<sim::CostModel> event =
                sim::CostModel::create(cfg);
            const sim::CostBreakdown c = event->stepCost(
                mob.layers, mixesFor(mob, 0.86), batch, kBits);
            const double stall_frac =
                c.plannedCycles > 0
                    ? static_cast<double>(c.memoryStallCycles) /
                          static_cast<double>(c.plannedCycles)
                    : 0.0;
            row.push_back(Table::num(stall_frac, 3));
            if (gb_kb == 108)
                insert_serial = c.components.mcache.insertSerialCycles;
        }
        // The MCACHE-sizing lever under replay: more sets drain the
        // MAU insert queues in fewer serial cycles.
        row.push_back(std::to_string(insert_serial));
        t3.row(row);
    }
    t3.print();

    // Per-component stats of the default event configuration, the
    // per-component occupancy/stall view the analytic backend lacks.
    {
        AcceleratorConfig cfg;
        cfg.backwardReuse = true;
        cfg.weightGradReuse = true;
        cfg.sim.backend = SimBackend::Event;
        cfg.sim.fidelity = SimFidelity::Sampled;
        const std::unique_ptr<sim::CostModel> event =
            sim::CostModel::create(cfg);
        const sim::CostBreakdown c = event->stepCost(
            mob.layers, mixesFor(mob, 0.86), batch, kBits);
        std::printf("component stats (mobilenet_v2, replay on):\n");
        c.components.print(c.plannedCycles);
        std::printf("\n");
    }

    // Wall cost of one event-backend step evaluation (vgg13,
    // per-pass fidelity) — the price of the extra fidelity.
    AcceleratorConfig timing_cfg;
    timing_cfg.sim.backend = SimBackend::Event;
    const std::unique_ptr<sim::CostModel> timed =
        sim::CostModel::create(timing_cfg);
    const ModelConfig vgg = vgg13();
    const std::vector<HitMix> vmixes = mixesFor(vgg, 0.86);
    const double step_s = bestSeconds(
        [&] { (void)timed->stepCost(vgg.layers, vmixes, batch, kBits); });
    std::printf("event stepCost(vgg13, batch %lld): %.3f ms per "
                "evaluation\n\n",
                static_cast<long long>(batch), step_s * 1e3);

    ResultLine line("BENCH_eventsim.json", "sweep_eventsim");
    line.speedups(vgg_speedup, std::nan(""));
    line.num("event_vgg13_speedup", vgg_speedup, 3);
    line.num("event_mobilenet_speedup", mob_speedup, 3);
    line.num("event_is_speedup", is_speedup, 3);
    line.num("event_ws_speedup", ws_speedup, 3);
    line.num("event_vgg13_agreement_dev", vgg_dev, 5);
    line.num("event_mobilenet_agreement_dev", mob_dev, 5);
    line.num("event_step_setup_ms", step_s * 1e3, 4);
    line.config("bits", kBits);
    line.config("batch", batch);
    line.config("cpu", kernels::avx2Ops() ? "avx2" : "scalar");
    AcceleratorConfig std_cfg;
    std_cfg.sim.backend = SimBackend::Event;
    stdConfig(line, std_cfg);
    line.print();
    return 0;
}

} // namespace
} // namespace bench
} // namespace mercury

int
main()
{
    return mercury::bench::run();
}
