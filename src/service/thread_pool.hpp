/**
 * @file
 * Fixed-size worker pool with a FIFO task queue and futures.
 *
 * The compile service's execution engine: jobs are type-erased
 * callables pushed onto one shared queue; a fixed set of workers
 * drains it. Results and exceptions travel back through std::future,
 * so a crashing compile job never takes a worker (or the process)
 * down with it.
 */

#ifndef QC_SERVICE_THREAD_POOL_HPP
#define QC_SERVICE_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace qc::service {

/**
 * A fixed-size thread pool.
 *
 * Tasks submitted after shutdown() (or destruction) throw. The
 * destructor finishes every task already queued before joining, so
 * futures obtained from submit() never dangle.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; <= 0 means hardware concurrency. */
    explicit ThreadPool(int threads = 0);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured worker count (fixed at construction). */
    int numThreads() const { return numThreads_; }

    /**
     * Enqueue a callable; returns a future for its result. The
     * callable runs exactly once on some worker thread; an exception
     * it throws is captured into the future.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /** Block until every queued task has finished. */
    void waitIdle();

    /**
     * Discard every task that is queued but not yet running; tasks
     * already executing finish normally. Futures of the discarded
     * tasks are broken (std::future_error on get), so only use this
     * when the caller abandons them — e.g. an interrupt path that
     * reports partial results. Returns the number discarded.
     */
    std::size_t cancelPending();

    /** Stop accepting tasks; finish the queue; join the workers. */
    void shutdown();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::mutex mu_;
    std::condition_variable workAvailable_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int numThreads_ = 0; ///< configured size; stable across shutdown
    int active_ = 0;     ///< tasks currently executing
    bool stopping_ = false;
};

} // namespace qc::service

#endif // QC_SERVICE_THREAD_POOL_HPP
