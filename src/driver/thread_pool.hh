/**
 * @file
 * Fixed-size thread pool over one FIFO queue.
 *
 * Campaign jobs last milliseconds and the pool sees a few hundred of
 * them, so one mutex-guarded deque is all the coordination they
 * need: workers pop from its front, and parallelFor() pushes its
 * whole batch under one lock hold. A one-worker pool therefore runs
 * a batch in index order and sees queue depth n-1-i at task i
 * whatever the timing, so a serial campaign's jobs (and its
 * telemetry stream) are deterministic. With more workers completion
 * order is unspecified: callers that need deterministic output key
 * results by the task index (see driver::Campaign).
 *
 * parallelFor() is the only way to run work on the pool. It waits
 * for its own tasks alone, so concurrent calls (dvi-serve's
 * campaigns) share one pool, and it rethrows the first exception
 * one of its tasks raised once all of them have finished.
 */

#ifndef DVI_DRIVER_THREAD_POOL_HH
#define DVI_DRIVER_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvi
{
namespace driver
{

/** Fixed-size thread pool over one FIFO queue. */
class ThreadPool
{
  public:
    /** 0 workers means one per hardware thread. */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Stops the workers and joins them; each leaves once the queue
     * is empty. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Queued, not yet started tasks: a point-in-time sample,
     * read by telemetry at job boundaries. */
    std::size_t queueDepth() const;

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    using Task = std::function<void()>;

    friend void parallelFor(ThreadPool &pool, std::size_t n,
                            const std::function<void(std::size_t)> &fn);

    /** Append a batch to the queue under one lock hold. */
    void push(std::vector<Task> batch);

    void workerLoop();

    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool stopping = false;
    std::vector<std::thread> workers;
};

/**
 * Run fn(i) for i in [0, n) on the pool and wait for those n tasks.
 * fn must be safe to invoke concurrently for distinct i. The first
 * exception a task throws is rethrown after every other task has
 * run. Must not be called from a pool task: the caller blocks, and a
 * pool whose every worker blocks cannot finish the batch.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_THREAD_POOL_HH
