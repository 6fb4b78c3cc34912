/**
 * @file
 * Unit tests for the util substrate: deterministic RNG, statistics,
 * table rendering, and the pool composition helpers (TaskGroup,
 * SerialExecutor) that the streaming reuse passes are built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/executors.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mercury {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestoresStream)
{
    Rng a(7);
    std::vector<uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next64());
    a.seed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next64(), first[static_cast<size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(4);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-2.5, 7.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 7.5);
    }
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllResidues)
{
    Rng r(6);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.uniformInt(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsAreStandard)
{
    Rng r(8);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(r.normal());
    EXPECT_NEAR(mean(xs), 0.0, 0.02);
    EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndStddev)
{
    Rng r(9);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(r.normal(5.0, 2.0));
    EXPECT_NEAR(mean(xs), 5.0, 0.05);
    EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(10);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(11);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == child.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, FillNormalFillsEveryElement)
{
    Rng r(12);
    std::vector<float> v(64, 0.0f);
    r.fillNormal(v);
    int nonzero = 0;
    for (float x : v)
        nonzero += x != 0.0f;
    EXPECT_GT(nonzero, 60);
}

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Stats, MeanAndStddevKnownValues)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(Stats, GeomeanDeathOnEmpty)
{
    EXPECT_DEATH(geomean({}), "geomean");
}

TEST(Stats, GeomeanDeathOnNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}

TEST(Table, AlignsColumns)
{
    Table t("demo");
    t.header({"model", "speedup"});
    t.row({"VGG13", "1.89"});
    t.row({"AlexNet", "1.50"});
    const std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("VGG13"), std::string::npos);
    EXPECT_NE(s.find("AlexNet"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvRendersRows)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.975, 2), "1.98");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, CountGroupsThousands)
{
    EXPECT_EQ(Table::count(1234567), "1,234,567");
    EXPECT_EQ(Table::count(12), "12");
    EXPECT_EQ(Table::count(0), "0");
}

// ---------------------------------------------------------------------
// Executors (util/executors.hpp): the ordering primitives under the
// streaming reuse passes. SerialExecutor must run one chain's tasks
// strictly in submission order with no overlap (the MCACHE
// owner-before-hit discipline hangs off this); TaskGroup must join
// everything submitted, from any thread.
// ---------------------------------------------------------------------

TEST(SerialExecutor, RunsTasksInSubmissionOrderWithoutOverlap)
{
    ThreadPool pool(3);
    SerialExecutor chain(&pool);
    std::vector<int> order;
    std::atomic<int> in_flight{0};
    std::atomic<bool> overlapped{false};
    for (int i = 0; i < 64; ++i) {
        chain.run([&, i] {
            if (in_flight.fetch_add(1) != 0)
                overlapped.store(true);
            order.push_back(i); // safe iff tasks never overlap
            in_flight.fetch_sub(1);
        });
    }
    chain.wait();
    EXPECT_FALSE(overlapped.load());
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);

    // Two executors on one pool do run concurrently with each other;
    // their combined task count still adds up.
    SerialExecutor a(&pool), b(&pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) {
        a.run([&] { ran.fetch_add(1); });
        b.run([&] { ran.fetch_add(1); });
    }
    a.wait();
    b.wait();
    EXPECT_EQ(ran.load(), 64);
}

TEST(SerialExecutor, NullPoolRunsInlineInOrder)
{
    SerialExecutor chain(nullptr);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        chain.run([&, i] { order.push_back(i); });
    chain.wait(); // no-op: everything already ran inline
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SerialExecutor, ReusableAfterWaitAndDrainsOnDestruction)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    {
        SerialExecutor chain(&pool);
        for (int i = 0; i < 16; ++i)
            chain.run([&] { ran.fetch_add(1); });
        chain.wait();
        EXPECT_EQ(ran.load(), 16);
        // A drained chain accepts more work.
        for (int i = 0; i < 16; ++i)
            chain.run([&] { ran.fetch_add(1); });
        // Destructor drains the outstanding tail.
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(SerialExecutor, ManyChainsInterleaveButStayInternallyOrdered)
{
    // The conv pass shape: one chain per in-flight filter, every
    // chain receiving every block in stream order. Each chain records
    // the block sequence it saw; all must equal the submission order.
    constexpr int kChains = 4;
    constexpr int kBlocks = 100;
    ThreadPool pool(3);
    std::vector<std::unique_ptr<SerialExecutor>> chains;
    std::vector<std::vector<int>> seen(kChains);
    for (int c = 0; c < kChains; ++c)
        chains.push_back(std::make_unique<SerialExecutor>(&pool));
    for (int b = 0; b < kBlocks; ++b)
        for (int c = 0; c < kChains; ++c)
            chains[static_cast<size_t>(c)]->run(
                [&seen, c, b] { seen[static_cast<size_t>(c)].push_back(b); });
    for (auto &chain : chains)
        chain->wait();
    for (int c = 0; c < kChains; ++c) {
        ASSERT_EQ(seen[static_cast<size_t>(c)].size(),
                  static_cast<size_t>(kBlocks));
        for (int b = 0; b < kBlocks; ++b)
            EXPECT_EQ(seen[static_cast<size_t>(c)][static_cast<size_t>(b)],
                      b);
    }
}

TEST(TaskGroup, JoinsAllSubmittedTasks)
{
    ThreadPool pool(2);
    TaskGroup group(&pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        group.run([&] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 100);
    // A group is reusable after a wait.
    group.run([&] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 101);
    // Null pool: inline execution.
    TaskGroup inline_group(nullptr);
    inline_group.run([&] { ran.fetch_add(1); });
    inline_group.wait();
    EXPECT_EQ(ran.load(), 102);
}

TEST(TaskGroup, SubmitFromInsideATaskIsJoined)
{
    // The streaming pipeline's self-replenishing hash chain submits
    // the next hash task from inside the current one; wait() must
    // cover tasks enqueued that way too.
    ThreadPool pool(2);
    TaskGroup group(&pool);
    std::atomic<int> ran{0};
    group.run([&] {
        ran.fetch_add(1);
        group.run([&] {
            ran.fetch_add(1);
            group.run([&] { ran.fetch_add(1); });
        });
    });
    group.wait();
    EXPECT_EQ(ran.load(), 3);
}

// ---------------------------------------------------------------------
// ThreadPool (util/thread_pool.hpp): the work-stealing substrate's
// scheduler contracts. Stealing may reorder a pool's tasks freely but
// must never break a SerialExecutor chain's submission order; inline
// execution is worker-only and depth-bounded; park/wake must survive
// repeated idle/burst cycles without losing tasks.
// ---------------------------------------------------------------------

TEST(ThreadPool, StealingRedistributesWorkWithoutBreakingChainOrder)
{
    // Fan a noise wave out from inside one worker task so the whole
    // wave lands in that worker's own deque and the other workers have
    // to steal it, while a SerialExecutor chain runs alongside. The
    // chain contract must hold no matter which worker a stolen pump
    // lands on.
    ThreadPool pool(3);
    SerialExecutor chain(&pool);
    TaskGroup noise(&pool);
    std::vector<int> order;
    std::atomic<int> noise_ran{0};
    int blocks = 0;
    for (int round = 0; round < 50; ++round) {
        noise.run([&] {
            for (int i = 0; i < 64; ++i)
                noise.run([&] {
                    noise_ran.fetch_add(1);
                    std::this_thread::yield();
                });
        });
        for (int b = 0; b < 16; ++b, ++blocks)
            chain.run([&order, blocks] { order.push_back(blocks); });
        noise.wait();
        chain.wait();
        if (pool.stealCount() > 0 && round >= 4)
            break;
    }
    EXPECT_GT(pool.stealCount(), 0); // the sweep actually migrated work
    ASSERT_EQ(order.size(), static_cast<size_t>(blocks));
    for (int b = 0; b < blocks; ++b)
        EXPECT_EQ(order[static_cast<size_t>(b)], b);
    EXPECT_EQ(noise_ran.load() % 64, 0);
}

TEST(ThreadPool, InlineExecutionIsDepthBounded)
{
    // A self-replenishing chain on a 1-worker pool: every nested
    // submit sees zero idle peers, so the worker runs it inline until
    // the per-thread depth budget is spent, then queues. The observed
    // nesting must stay at (outer frame + kMaxInlineDepth) and the
    // whole chain must still complete.
    ThreadPool pool(1);
    TaskGroup group(&pool);
    std::atomic<int> depth{0};
    std::atomic<int> max_depth{0};
    std::atomic<int> remaining{64};
    std::function<void()> task = [&] {
        const int d = depth.fetch_add(1) + 1;
        int seen = max_depth.load();
        while (d > seen && !max_depth.compare_exchange_weak(seen, d)) {
        }
        if (remaining.fetch_sub(1) > 1)
            group.run(task);
        depth.fetch_sub(1);
    };
    group.run(task);
    group.wait();
    EXPECT_EQ(remaining.load(), 0);
    EXPECT_GT(max_depth.load(), 1); // inlining did engage
    EXPECT_LE(max_depth.load(), 1 + ThreadPool::kMaxInlineDepth);
    EXPECT_GT(pool.inlineRuns(), 0);
}

TEST(ThreadPool, NonWorkerSubmitIsAsynchronousEvenWhenSaturated)
{
    // The serve-backpressure contract: an outside thread's submit()
    // must return before the task executes even when every worker is
    // busy — SessionHandle's bounded queue and SerialExecutor::run
    // both rely on it. Block the sole worker, submit from the test
    // thread, and verify nothing ran inline here.
    ThreadPool pool(1);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> blocked{false};
    pool.submit([&] {
        blocked.store(true);
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
    });
    while (!blocked.load())
        std::this_thread::yield();
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0); // queued behind the blocked worker
    EXPECT_EQ(pool.inlineRuns(), 0);
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    for (int spin = 0; ran.load() != 8 && spin < 20000; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParkWakeSurvivesRepeatedIdleBurstCycles)
{
    // Alternate idle gaps (long enough for workers to park) with
    // submitBatch bursts; every burst must be fully delivered — the
    // Dekker park/submit handshake may never strand a wave on a
    // parked pool.
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    constexpr int kRounds = 12;
    constexpr int kBurst = 48;
    for (int round = 0; round < kRounds; ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::vector<std::function<void()>> batch;
        for (int i = 0; i < kBurst; ++i)
            batch.push_back([&] { ran.fetch_add(1); });
        pool.submitBatch(std::move(batch));
        const int expected = (round + 1) * kBurst;
        for (int spin = 0; ran.load() < expected && spin < 20000; ++spin)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        ASSERT_EQ(ran.load(), expected) << "burst lost in round " << round;
    }
}

} // namespace
} // namespace mercury
