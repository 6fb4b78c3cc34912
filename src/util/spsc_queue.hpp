/**
 * @file
 * Small closable FIFO hand-off queue, used by a detection hash job
 * (DetectionHashJob) to hand hashed blocks to the probing thread in
 * ascending order while later blocks are still hashing.
 *
 * Concurrency contract: one consumer thread calls pop()/tryPop().
 * Any number of producers may call push()/close() — pushes are
 * serialized by the internal mutex, so "SPSC" here describes the
 * intended hand-off shape (the hash job's sequencer guarantees pushes
 * arrive in block order), not a lock-free restriction. pop() blocks
 * until an item or close() arrives; after close() drains, pop()
 * returns false forever.
 */

#ifndef MERCURY_UTIL_SPSC_QUEUE_HPP
#define MERCURY_UTIL_SPSC_QUEUE_HPP

#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.hpp"

namespace mercury {

/** Closable blocking FIFO queue for pipeline block hand-off. */
template <typename T> class SpscQueue
{
  public:
    /**
     * Enqueue one item and wake the consumer. Pushing into a closed
     * queue is a bug (the item could only be dropped silently) and
     * panics.
     */
    void push(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                panic("push into a closed SpscQueue");
            items_.push_back(std::move(item));
        }
        ready_.notify_one();
    }

    /**
     * Dequeue into `out`, blocking until an item is available. Returns
     * false once the queue is closed and drained.
     */
    bool pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** Non-blocking pop; false when nothing is queued right now. */
    bool tryPop(T &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** End the stream: pop() returns false once the backlog drains. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace mercury

#endif // MERCURY_UTIL_SPSC_QUEUE_HPP
