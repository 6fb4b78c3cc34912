#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/logging.hpp"

namespace mercury {

ThreadPool::ThreadPool(int workers)
{
    if (workers < 0)
        panic("ThreadPool worker count must be non-negative, got ",
              workers);
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (threads_.empty()) {
        task();
        return;
    }
    bool wake;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        wake = parked_ > 0;
    }
    if (wake)
        ready_.notify_one();
}

bool
ThreadPool::tryPop(std::function<void()> &task)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty())
        return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    return true;
}

void
ThreadPool::workerLoop()
{
    std::function<void()> task;
    for (;;) {
        // Yield twice before parking: a yield beats a futex wait when
        // the producer is one context switch away.
        bool got = tryPop(task);
        for (int spin = 0; spin < 2 && !got; ++spin) {
            std::this_thread::yield();
            got = tryPop(task);
        }
        if (!got) {
            std::unique_lock<std::mutex> lock(mutex_);
            ++parked_;
            ready_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
            --parked_;
            // Stopping with nothing queued: a task still running on
            // another worker pops whatever it submits itself.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        task = nullptr; // release the closure's captures now
    }
}

void
ThreadPool::parallelFor(int64_t items,
                        const std::function<void(int64_t)> &fn)
{
    if (items <= 0)
        return;
    if (threads_.empty() || items == 1) {
        for (int64_t i = 0; i < items; ++i)
            fn(i);
        return;
    }

    // Shared by the drivers: the next index and the drivers still
    // running. The last helper to finish wakes the caller.
    struct Loop
    {
        std::atomic<int64_t> next{0};
        int pending = 0;
        std::mutex mutex;
        std::condition_variable done;
    };
    auto loop = std::make_shared<Loop>();
    auto drive = [loop, items, &fn] {
        int64_t i;
        while ((i = loop->next.fetch_add(1, std::memory_order_relaxed)) <
               items)
            fn(i);
    };
    const int helpers = static_cast<int>(std::min<int64_t>(
        static_cast<int64_t>(threads_.size()), items));
    loop->pending = helpers;
    for (int k = 0; k < helpers; ++k) {
        submit([loop, drive] {
            drive();
            std::lock_guard<std::mutex> lock(loop->mutex);
            if (--loop->pending == 0)
                loop->done.notify_all();
        });
    }

    // The caller is an executor too: no thread idles during a loop.
    drive();

    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->done.wait(lock, [&loop] { return loop->pending == 0; });
}

int
ThreadPool::resolveThreads(int requested)
{
    if (requested < 0)
        panic("thread count must be >= 0 (0 = auto), got ", requested);
    if (requested >= 1)
        return std::min(requested, 256);
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<int>(static_cast<int>(hw), 1, 16);
}

ThreadPool *
ThreadPool::forKnob(int requested, std::unique_ptr<ThreadPool> &slot)
{
    const int threads = resolveThreads(requested);
    if (threads <= 1)
        return nullptr;
    if (!slot)
        slot = std::make_unique<ThreadPool>(threads - 1);
    return slot.get();
}

} // namespace mercury
