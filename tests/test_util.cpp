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
    // A task may submit more tasks into its own group; wait() must
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
// ThreadPool (util/thread_pool.hpp): one FIFO queue. submit() is
// asynchronous from every thread, park/wake must survive repeated
// idle/burst cycles without losing tasks, and the destructor runs
// every task, including those submitted while it drains.
// ---------------------------------------------------------------------

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
    // bursts of submits; every burst must be fully delivered — the
    // park/submit handshake may never strand a wave on a parked pool.
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    constexpr int kRounds = 12;
    constexpr int kBurst = 48;
    for (int round = 0; round < kRounds; ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (int i = 0; i < kBurst; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        const int expected = (round + 1) * kBurst;
        for (int spin = 0; ran.load() < expected && spin < 20000; ++spin)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        ASSERT_EQ(ran.load(), expected) << "burst lost in round " << round;
    }
}

TEST(ThreadPool, WorkerSubmitIsAsynchronous)
{
    // A task's own submit returns before the new task runs, as an
    // outside thread's does: on a 1-worker pool the inner task can only
    // run once the outer one has returned.
    ThreadPool pool(1);
    TaskGroup group(&pool);
    std::atomic<bool> inner_ran{false};
    std::atomic<bool> ran_before_return{true};
    group.run([&] {
        group.run([&] { inner_ran.store(true); });
        ran_before_return.store(inner_ran.load());
    });
    group.wait();
    EXPECT_TRUE(inner_ran.load());
    EXPECT_FALSE(ran_before_return.load());
}

TEST(ThreadPool, DestructorRunsTasksSubmittedDuringShutdown)
{
    // A task still running when the destructor starts submits a chain
    // of tasks, each submitting the next; the destructor must run them
    // all before it joins.
    std::atomic<int> ran{0};
    std::atomic<bool> started{false};
    std::function<void(int)> chain;
    {
        ThreadPool pool(2);
        chain = [&](int left) {
            ran.fetch_add(1);
            if (left > 1)
                pool.submit([&chain, left] { chain(left - 1); });
        };
        pool.submit([&] {
            started.store(true);
            // Long enough for the destructor to begin draining.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            for (int i = 0; i < 4; ++i)
                pool.submit([&chain] { chain(16); });
        });
        while (!started.load())
            std::this_thread::yield();
    }
    EXPECT_EQ(ran.load(), 4 * 16);
}

TEST(ThreadPool, OneWorkerRunsTasksInSubmissionOrder)
{
    // One FIFO queue: a 1-worker pool runs its tasks in the order they
    // were queued, by an outside thread or by a task. The worker waits
    // at a gate until every outside task is queued, so the first task's
    // own submits land behind them.
    constexpr int kOutside = 32;
    constexpr int kInner = 8;
    ThreadPool pool(1);
    TaskGroup group(&pool);
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    group.run([&] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return open; });
    });
    std::vector<int> order; // appended by the one worker only
    for (int i = 0; i < kOutside; ++i) {
        group.run([&order, &group, i] {
            order.push_back(i);
            if (i == 0)
                for (int k = 0; k < kInner; ++k)
                    group.run([&order, k] { order.push_back(kOutside + k); });
        });
    }
    {
        std::lock_guard<std::mutex> lock(m);
        open = true;
    }
    cv.notify_all();
    group.wait();
    ASSERT_EQ(order.size(), static_cast<size_t>(kOutside + kInner));
    for (int i = 0; i < kOutside + kInner; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, ZeroWorkerPoolRunsSubmitInline)
{
    // With no workers, submit() runs the task on the calling thread
    // before it returns, and a TaskGroup over that pool does the same.
    ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), 0);
    bool ran = false;
    std::thread::id ran_on;
    pool.submit([&] {
        ran = true;
        ran_on = std::this_thread::get_id();
    });
    EXPECT_TRUE(ran);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    int grouped = 0;
    TaskGroup group(&pool);
    for (int i = 0; i < 5; ++i) {
        group.run([&grouped] { ++grouped; });
        EXPECT_EQ(grouped, i + 1);
    }
    group.wait();
    EXPECT_EQ(grouped, 5);
}

TEST(ThreadPool, ThreadKnobSizesPoolsOneWorkerShort)
{
    // 0 (auto) is the hardware's thread count clamped to [1, 16], and an
    // explicit knob is capped at 256 (resolving starts no thread).
    // forKnob gives a knob of 1 no pool and a knob of N a pool of N - 1
    // workers, built once per slot, since callers drive parallelFor too.
    const int autos = ThreadPool::resolveThreads(0);
    EXPECT_GE(autos, 1);
    EXPECT_LE(autos, 16);
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1);
    EXPECT_EQ(ThreadPool::resolveThreads(256), 256);
    EXPECT_EQ(ThreadPool::resolveThreads(100000), 256);
    std::unique_ptr<ThreadPool> slot;
    EXPECT_EQ(ThreadPool::forKnob(1, slot), nullptr);
    EXPECT_EQ(slot, nullptr);
    ThreadPool *pool = ThreadPool::forKnob(3, slot);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool, slot.get());
    EXPECT_EQ(pool->workers(), 2);
    EXPECT_EQ(ThreadPool::forKnob(3, slot), pool);
}

} // namespace
} // namespace mercury
