#include "thread_pool.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace qc::service {

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        threads = std::max(threads, 1);
    }
    numThreads_ = threads;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            QC_FATAL("ThreadPool::submit after shutdown");
        queue_.push_back(std::move(task));
    }
    workAvailable_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workAvailable_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task(); // packaged_task captures exceptions into the future
        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                allIdle_.notify_all();
        }
    }
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mu_);
    allIdle_.wait(lock,
                  [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::shutdown()
{
    // Claim the worker handles under the lock so concurrent
    // shutdown() calls each join a disjoint (possibly empty) set.
    std::vector<std::thread> claimed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        claimed.swap(workers_);
    }
    workAvailable_.notify_all();
    for (std::thread &w : claimed)
        if (w.joinable())
            w.join();
}

std::size_t
ThreadPool::cancelPending()
{
    std::deque<std::function<void()>> discarded;
    {
        std::lock_guard<std::mutex> lock(mu_);
        discarded.swap(queue_);
        if (active_ == 0)
            allIdle_.notify_all();
    }
    // Destroyed outside the lock: dropping a packaged_task breaks
    // its promise, which may run arbitrary future-side destructors.
    return discarded.size();
}

} // namespace qc::service
