/**
 * @file
 * Worker pool used by the detection pipeline (src/pipeline) and the
 * reuse passes' replays. The composition helpers built on it
 * (TaskGroup and SerialExecutor) live in util/executors.hpp.
 *
 * Execution substrate (see docs/ARCHITECTURE.md, "Execution
 * substrate"): one mutex-guarded FIFO queue that every thread submits
 * into, and workers that pop from its front. No task shape needs more:
 * a detection pass puts at most one looping hasher per worker on the
 * queue (each claims its blocks with one atomic add), and parallelFor
 * puts one driver per worker.
 *
 *  - submit() is asynchronous from every thread, workers included: it
 *    returns before the task runs (bounded job queues and
 *    SerialExecutor::run rely on it). Only a pool with zero workers
 *    runs a task inline.
 *  - Idle workers yield twice, rechecking the queue, then park on a
 *    condition variable. A submitter notifies only when a worker is
 *    parked; both sides count parked workers under the queue's mutex,
 *    so no wakeup is lost.
 *  - The destructor drains the queue, including tasks that running
 *    tasks submit, then joins the workers.
 *
 * Ordering: tasks start in submission order but run concurrently, so
 * anything order-dependent rides a SerialExecutor (one pump in flight
 * per chain, tasks in submission order). The calling thread
 * participates in parallelFor(), so a pool of W workers executes loops
 * with W + 1 concurrent executors.
 *
 * Deadlock rule: pool tasks must never block on other pool tasks
 * (TaskGroup::wait, SerialExecutor::wait, and parallelFor are for
 * non-worker threads). All submitted closures must be no-throw — a
 * failed invariant panics/aborts, it does not unwind.
 */

#ifndef MERCURY_UTIL_THREAD_POOL_HPP
#define MERCURY_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mercury {

/** Fixed-size pool of workers over one FIFO queue. */
class ThreadPool
{
  public:
    /** Spawn `workers` threads (0 is allowed: everything runs inline). */
    explicit ThreadPool(int workers);

    /** Drains the queue and joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * Append one task to the queue; it runs on a worker after submit()
     * returns. With zero workers it runs inline instead.
     */
    void submit(std::function<void()> task);

    /**
     * Run fn(0) .. fn(items - 1) across the pool and the calling
     * thread, returning when every item completed. Indices are
     * dynamically scheduled; fn must not assume any ordering. Safe to
     * call with an empty pool (runs inline).
     */
    void parallelFor(int64_t items, const std::function<void(int64_t)> &fn);

    /**
     * Resolve a thread-count knob: explicit values >= 1 pass through
     * capped at 256 (a typo'd knob must not exhaust OS threads),
     * 0 (auto) becomes the hardware concurrency clamped to [1, 16].
     */
    static int resolveThreads(int requested);

    /**
     * Lazily materialize a pool for a thread knob into `slot` and
     * return it, or nullptr when the resolved count is <= 1 (run
     * inline). The pool gets `threads - 1` workers because callers
     * participate in every parallelFor.
     */
    static ThreadPool *forKnob(int requested,
                               std::unique_ptr<ThreadPool> &slot);

  private:
    std::vector<std::thread> threads_;
    std::mutex mutex_; ///< guards everything below
    std::condition_variable ready_;
    std::deque<std::function<void()>> queue_;
    int parked_ = 0;
    bool stopping_ = false;

    /** Pop the queue's front into `task`; false when it is empty. */
    bool tryPop(std::function<void()> &task);
    void workerLoop();
};

} // namespace mercury

#endif // MERCURY_UTIL_THREAD_POOL_HPP
