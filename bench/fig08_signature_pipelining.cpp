/**
 * @file
 * Figure 8: timing of signature generation on a row-stationary PE
 * set, without and with the ORg pipelining register, validated
 * against the cycle-accurate reservation-table model. Fig. 8c's
 * point: steady-state cost per signature drops from 2x to x.
 */

#include "bench_common.hpp"
#include "sim/cycle_model.hpp"
#include "sim/dataflow.hpp"
#include "util/logging.hpp"

int
main()
{
    using namespace mercury;
    bench::banner("Figure 8: pipelined signature calculation",
                  "first signature in 2x+1 cycles, then x cycles each "
                  "(vs 2x unpipelined); ~2x steady-state speedup");

    Table t("Fig. 8c: cycles to produce k signatures (x = vector rows)");
    t.header({"x", "signatures", "unpipelined", "pipelined", "speedup"});
    for (uint64_t x : {3u, 5u, 7u, 11u}) {
        for (uint64_t k : {1u, 4u, 16u, 64u, 1024u}) {
            const uint64_t up = unpipelinedPassCycles(k, x);
            const uint64_t pp = pipelinedPassCycles(k, x);
            // Cross-check against the reservation-table simulator for
            // tractable sizes.
            if (k <= 64) {
                PESetSchedule sched(k, x, true);
                if (sched.totalCycles() != pp || !sched.structurallyValid())
                    fatal("pipelined schedule mismatch at x=", x, " k=", k);
            }
            t.row({std::to_string(x), std::to_string(k),
                   std::to_string(up), std::to_string(pp),
                   Table::num(static_cast<double>(up) /
                                  static_cast<double>(pp),
                              2)});
        }
    }
    t.print();

    // The paper's worked example (x = 3): Sig1,1 at cycle 7, Sig2,1 at
    // cycle 10 (Fig. 8b).
    std::printf("worked example x=3: first signature cycle %llu "
                "(paper: 7), second %llu (paper: 10)\n\n",
                static_cast<unsigned long long>(pipelinedCompletion(0, 3)),
                static_cast<unsigned long long>(pipelinedCompletion(1, 3)));

    // Fig. 8's system-level point: generation overlaps with PE work,
    // so detection stays off the critical path. Compare the timing
    // model's serial vs overlapped signature accounting on VGG13-ish
    // conv layers (the overlapDetection knob).
    AcceleratorConfig serial_cfg;
    AcceleratorConfig overlap_cfg;
    overlap_cfg.overlapDetection = true;
    const auto serial = sim::CostModel::create(serial_cfg);
    const auto overlapped = sim::CostModel::create(overlap_cfg);

    Table ot("overlapped signature accounting (row-stationary, "
             "40% hits)");
    ot.header({"layer", "sig-cycles", "exposed-overlapped",
               "layer-speedup"});
    struct Shape
    {
        const char *name;
        int64_t cin, cout, hw;
    };
    for (const Shape s : {Shape{"vgg13 conv2 64x64x112", 64, 64, 112},
                          Shape{"vgg13 conv4 128x128x56", 128, 128, 56},
                          Shape{"vgg13 conv8 512x512x14", 512, 512, 14}}) {
        const LayerShape shape =
            LayerShape::conv(s.name, s.cin, s.cout, s.hw, s.hw, 3);
        const HitMix mix =
            HitMix::fromFractions(shape.vectorsPerChannel(), 0.4);
        const LayerCycles sc = serial->layerCost(shape, 1, mix, 20);
        const LayerCycles oc = overlapped->layerCost(shape, 1, mix, 20);
        ot.row({s.name, std::to_string(sc.signature),
                std::to_string(oc.signature),
                Table::num(static_cast<double>(sc.mercuryTotal()) /
                               static_cast<double>(oc.mercuryTotal()),
                           3) +
                    "x"});
    }
    ot.print();
    return 0;
}
