/**
 * @file
 * Composition helpers over ThreadPool: TaskGroup (submit-many,
 * join-once) and SerialExecutor (a FIFO task chain — at most one task
 * of the chain runs at a time, in submission order).
 *
 * A detection hash job (DetectionHashJob) joins its hash tasks through
 * a TaskGroup, and the serving layer runs each session on a
 * SerialExecutor chain; both have their own unit tests
 * (tests/test_util.cpp).
 *
 * Deadlock rule (inherited from ThreadPool): pool tasks must never
 * block on other pool tasks — TaskGroup::wait and
 * SerialExecutor::wait are for non-worker threads only. All submitted
 * closures must be no-throw.
 */

#ifndef MERCURY_UTIL_EXECUTORS_HPP
#define MERCURY_UTIL_EXECUTORS_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "util/thread_pool.hpp"

namespace mercury {

/**
 * Join handle over a set of independently submitted tasks: run() any
 * number of closures, wait() once for all of them. A detection hash
 * job holds one group for its self-replenishing hash tasks and joins
 * it before it hands its pass back.
 *
 * Concurrency contract: run() may be called from any thread,
 * including from inside a task of this very group (the hash job's
 * self-replenishing chain does exactly that); the bookkeeping is
 * mutex-protected. wait() is called by one owner thread (the engine's
 * caller) and must not be called from inside a pool task. With a null
 * pool every run() executes inline and wait() is a no-op.
 */
class TaskGroup
{
  public:
    /** @param pool worker pool, or nullptr to run everything inline */
    explicit TaskGroup(ThreadPool *pool)
        : pool_(pool)
    {
    }

    /** Destructor joins: outstanding tasks finish before teardown. */
    ~TaskGroup() { wait(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task (inline when the pool is null). */
    void run(std::function<void()> task);

    /**
     * Submit `count` copies of one task as a single batch
     * (ThreadPool::submitBatch): one lock round-trip and one wakeup
     * for the whole dependent group. A detection hash job seeds its
     * self-replenishing hash chain this way.
     */
    void runBatch(int64_t count, const std::function<void()> &task);

    /** Block until every task submitted so far has completed. */
    void wait();

  private:
    ThreadPool *pool_;
    std::mutex mutex_;
    std::condition_variable done_;
    int64_t pending_ = 0;
};

/**
 * FIFO task chain over a ThreadPool: tasks submitted to one executor
 * run in submission order and never concurrently with each other
 * (tasks of *different* executors do run concurrently). MercuryServer
 * runs each session on one, so a session's jobs run in submission
 * order while different sessions proceed in parallel on one pool.
 *
 * Concurrency contract: run() and wait() are called by one owner
 * thread; the chain itself executes on pool workers (inline with a
 * null pool). wait() must not be called from inside a pool task.
 */
class SerialExecutor
{
  public:
    /** @param pool worker pool, or nullptr to run everything inline */
    explicit SerialExecutor(ThreadPool *pool)
        : pool_(pool)
    {
    }

    /** Destructor drains the chain. */
    ~SerialExecutor() { wait(); }

    SerialExecutor(const SerialExecutor &) = delete;
    SerialExecutor &operator=(const SerialExecutor &) = delete;

    /** Append one task to the chain (inline when the pool is null). */
    void run(std::function<void()> task);

    /** Block until the chain is drained (queue empty, nothing running). */
    void wait();

  private:
    ThreadPool *pool_;
    std::mutex mutex_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    bool active_ = false; ///< a pump task is scheduled or running

    void pump();
};

} // namespace mercury

#endif // MERCURY_UTIL_EXECUTORS_HPP
