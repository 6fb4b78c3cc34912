/**
 * @file
 * RuntimePlanner bench (core/runtime_planner.hpp): what does a
 * compiled step schedule buy a multi-layer training step on the
 * accelerator?
 *
 * Modeled multi-layer step (sim/plan_model.hpp, through the
 * sim::CostModel facade) on the VGG-13 and MobileNetV2 stacks:
 * per-layer-barrier baseline vs planned schedule with setup amortized
 * and fused conv→conv edges hiding successor signature time under the
 * predecessor's trailing drain. `model_*_step_speedup` keys, gated at
 * the usual 5%; the run FATALs unless both stacks fuse at least one
 * edge and beat the barriered step. No wall-clock key: the CPU runs
 * every step on one execution path, so there is no planned schedule
 * to time against.
 */

#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sim/cost_model.hpp"

namespace mercury {
namespace bench {
namespace {

constexpr int kBits = 20;

/** One modeled stack entry: full-step speedup planned vs barriered,
 *  through the sim::CostModel facade (backend picked by name, so
 *  MERCURY_SIM_BACKEND=event re-runs this phase on the event sim). */
sim::CostBreakdown
modelStack(const ModelConfig &model, int64_t batch)
{
    AcceleratorConfig cfg;
    cfg.backwardReuse = true;
    cfg.weightGradReuse = true;
    const std::unique_ptr<sim::CostModel> cost =
        sim::CostModel::create(cfg);
    std::vector<HitMix> mixes;
    for (const LayerShape &shape : model.layers)
        mixes.push_back(
            HitMix::fromFractions(shape.vectorsPerChannel(), 0.4));
    return cost->stepCost(model.layers, mixes, batch, kBits);
}

int
run()
{
    banner("micro_planner: modeled compiled-step schedule",
           "a compiled step plan amortizes schedule setup and overlaps "
           "conv->conv edges across layers on the accelerator");

    const int64_t model_batch = smoke() ? 2 : 8;
    const sim::CostBreakdown vgg = modelStack(vgg13(), model_batch);
    const sim::CostBreakdown mob = modelStack(mobilenetV2(), model_batch);
    for (const auto &entry :
         {std::pair<const char *, const sim::CostBreakdown &>{"vgg13",
                                                              vgg},
          {"mobilenet_v2", mob}}) {
        const sim::CostBreakdown &m = entry.second;
        std::printf("%s: barrier %llu cycles -> planned %llu "
                    "(%.3fx; %d fused edges hide %llu signature "
                    "cycles, %llu setup cycles amortized)\n",
                    entry.first,
                    static_cast<unsigned long long>(m.barrierCycles),
                    static_cast<unsigned long long>(m.plannedCycles),
                    m.stepSpeedup(), m.fusedEdges,
                    static_cast<unsigned long long>(m.hiddenSignature),
                    static_cast<unsigned long long>(m.setupCycles));
        if (m.stepSpeedup() <= 1.0 || m.fusedEdges <= 0 ||
            m.hiddenSignature == 0) {
            std::printf("FAIL: %s planned schedule does not beat the "
                        "per-layer-barrier baseline\n",
                        entry.first);
            return 1;
        }
    }

    ResultLine line("BENCH_planner.json", "micro_planner");
    line.speedups(vgg.stepSpeedup(),
                  std::numeric_limits<double>::quiet_NaN());
    line.num("model_vgg13_step_speedup", vgg.stepSpeedup(), 3);
    line.num("model_mobilenet_step_speedup", mob.stepSpeedup(), 3);
    line.integer("vgg13_fused_edges", vgg.fusedEdges);
    line.integer("mobilenet_fused_edges", mob.fusedEdges);
    line.config("model_batch", model_batch);
    line.config("bits", kBits);
    stdConfig(line);
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
