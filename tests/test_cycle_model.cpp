/**
 * @file
 * Tests for the PE-set cycle model, pinned to the worked example in
 * the paper's Fig. 8: for 3x3 vectors the unpipelined schedule takes
 * 6 cycles per dot product, the pipelined schedule finishes the first
 * at cycle 7 and each subsequent one 3 cycles later.
 */

#include <gtest/gtest.h>

#include "sim/cycle_model.hpp"

namespace mercury {
namespace {

TEST(CycleModel, PaperFig8UnpipelinedNumbers)
{
    // x = 3: each signature bit takes 2x = 6 cycles, no overlap.
    EXPECT_EQ(unpipelinedCompletion(0, 3), 6u);
    EXPECT_EQ(unpipelinedCompletion(1, 3), 12u);
    EXPECT_EQ(unpipelinedPassCycles(3, 3), 18u);
}

TEST(CycleModel, PaperFig8PipelinedNumbers)
{
    // x = 3: Sig1,1 spans cycles 1..7; Sig2,1 finishes at cycle 10.
    EXPECT_EQ(pipelinedCompletion(0, 3), 7u);
    EXPECT_EQ(pipelinedCompletion(1, 3), 10u);
    EXPECT_EQ(pipelinedCompletion(2, 3), 13u);
}

TEST(CycleModel, PipelinedGeneralForm)
{
    for (uint64_t x : {1u, 2u, 3u, 5u, 7u, 11u}) {
        EXPECT_EQ(pipelinedPassCycles(1, x), 2 * x + 1);
        EXPECT_EQ(pipelinedPassCycles(10, x), 2 * x + 1 + 9 * x);
    }
}

TEST(CycleModel, ZeroVectorsCostNothing)
{
    EXPECT_EQ(pipelinedPassCycles(0, 3), 0u);
    EXPECT_EQ(unpipelinedPassCycles(0, 3), 0u);
}

TEST(CycleModel, PipelinedBeatsUnpipelinedForStreams)
{
    for (uint64_t v = 2; v < 30; ++v)
        EXPECT_LT(pipelinedPassCycles(v, 3), unpipelinedPassCycles(v, 3));
}

TEST(CycleModel, PipelinedAsymptoteIsHalf)
{
    // Fig. 8c: steady-state cost drops from 2x to x per signature.
    const uint64_t v = 10000;
    const double ratio =
        static_cast<double>(unpipelinedPassCycles(v, 5)) /
        static_cast<double>(pipelinedPassCycles(v, 5));
    EXPECT_NEAR(ratio, 2.0, 0.01);
}

TEST(CycleModel, BroadcastDotCycles)
{
    EXPECT_EQ(broadcastDotCycles(9), 10u);
}

TEST(CycleModel, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(ceilDiv(0, 3), 0u);
}

class ScheduleTest : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ScheduleTest, ClosedFormMatchesSchedule)
{
    const auto [vectors, x] = GetParam();
    for (bool pipelined : {false, true}) {
        PESetSchedule sched(static_cast<uint64_t>(vectors),
                            static_cast<uint64_t>(x), pipelined);
        for (int j = 0; j < vectors; ++j) {
            const uint64_t expect =
                pipelined
                    ? pipelinedCompletion(static_cast<uint64_t>(j),
                                          static_cast<uint64_t>(x))
                    : unpipelinedCompletion(static_cast<uint64_t>(j),
                                            static_cast<uint64_t>(x));
            EXPECT_EQ(sched.completionCycle(static_cast<uint64_t>(j)),
                      expect);
        }
    }
}

TEST_P(ScheduleTest, NoStructuralHazards)
{
    const auto [vectors, x] = GetParam();
    for (bool pipelined : {false, true}) {
        PESetSchedule sched(static_cast<uint64_t>(vectors),
                            static_cast<uint64_t>(x), pipelined);
        EXPECT_TRUE(sched.structurallyValid())
            << "vectors=" << vectors << " x=" << x
            << " pipelined=" << pipelined;
    }
}

INSTANTIATE_TEST_SUITE_P(
    VectorAndKernelSweep, ScheduleTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 16),
                       ::testing::Values(1, 2, 3, 5, 7)));

} // namespace
} // namespace mercury
