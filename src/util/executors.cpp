#include "util/executors.hpp"

namespace mercury {

void
TaskGroup::run(std::function<void()> task)
{
    if (!pool_ || pool_->workers() == 0) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_->submit([this, task = std::move(task)] {
        task();
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            done_.notify_all();
    });
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
}

void
SerialExecutor::run(std::function<void()> task)
{
    if (!pool_ || pool_->workers() == 0) {
        task();
        return;
    }
    bool start = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        if (!active_) {
            active_ = true;
            start = true;
        }
    }
    // At most one pump per executor is in flight, so the chain runs
    // strictly in submission order.
    if (start)
        pool_->submit([this] { pump(); });
}

void
SerialExecutor::pump()
{
    for (;;) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.empty()) {
                active_ = false;
                idle_.notify_all();
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
SerialExecutor::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return !active_ && queue_.empty(); });
}

} // namespace mercury
