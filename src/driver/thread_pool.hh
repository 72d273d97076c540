/**
 * @file
 * Work-stealing thread pool.
 *
 * Each worker owns a deque; submissions are distributed round-robin
 * across the deques, and a worker takes the oldest task from its own
 * deque before stealing the oldest from another's. The pool is
 * therefore FIFO per deque, and submitAll() publishes each deque's
 * share of a batch at once: a one-worker pool runs a batch in
 * submission order and sees the same queue depth at each task
 * whatever the timing, so a serial campaign's jobs (and its
 * telemetry stream) are deterministic. With more workers completion
 * order is unspecified: callers that need deterministic output must
 * key results by a task index (see parallelFor and driver::Campaign).
 *
 * The first exception a task throws is captured and rethrown from
 * wait(); subsequent exceptions are dropped. After wait() returns or
 * throws, the pool is reusable.
 */

#ifndef DVI_DRIVER_THREAD_POOL_HH
#define DVI_DRIVER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dvi
{
namespace driver
{

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** 0 workers means one per hardware thread. */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Drains best-effort, stops the workers, joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Enqueue a task. Safe from any thread, including workers. */
    void submit(Task task);

    /** Enqueue tasks as one batch, in order. Each deque receives its
     * share under one lock hold, so no worker starts a batch it has
     * only partly seen. Safe from any thread. */
    void submitAll(std::vector<Task> tasks);

    /** @name Observability counters
     * Relaxed atomics maintained on the submit / steal / completion
     * paths; read by telemetry at job boundaries. Monotonic except
     * queueDepth (a point-in-time sample of enqueued-not-started
     * tasks). @{ */
    std::uint64_t
    submittedCount() const
    {
        return submitted_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    executedCount() const
    {
        return executed_.load(std::memory_order_relaxed);
    }
    /** Tasks a worker took from another worker's deque. */
    std::uint64_t
    stealCount() const
    {
        return steals_.load(std::memory_order_relaxed);
    }
    std::size_t
    queueDepth() const
    {
        return queued.load(std::memory_order_relaxed);
    }
    /** @} */

    /**
     * Block until every submitted task has finished; rethrows the
     * first exception any task raised (the pool keeps running the
     * remaining tasks either way).
     */
    void wait();

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    struct WorkerQueue
    {
        std::mutex mu;
        std::deque<Task> tasks;
    };

    void workerLoop(std::size_t self);
    bool popOwn(std::size_t self, Task &out);
    bool steal(std::size_t self, Task &out);
    void runTask(Task &task);

    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::thread> workers;

    std::mutex mu;                 ///< guards cv waits and firstError
    std::condition_variable cvWork;
    std::condition_variable cvIdle;
    std::atomic<std::size_t> queued{0};      ///< enqueued, not started
    std::atomic<std::size_t> unfinished{0};  ///< enqueued or running
    std::atomic<std::size_t> nextQueue{0};   ///< round-robin cursor
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> steals_{0};
    bool stopping = false;
    std::exception_ptr firstError;
};

/**
 * Completion scope over a shared pool. ThreadPool::wait() waits for
 * *every* submitted task, which is right for a pool with one client
 * and wrong for a resident server running several campaigns on one
 * pool: campaign A's wait must not block on campaign B's jobs. A
 * TaskGroup tracks only the tasks submitted through it, so wait()
 * returns as soon as this group's tasks are done, whatever else is
 * still queued or running. wait() never runs tasks itself: a group's
 * tasks need a free worker, so a pool whose every worker is parked
 * on other groups' tasks cannot finish this one.
 *
 * The first exception a group task throws is captured and rethrown
 * from this group's wait(); it never reaches the pool's firstError
 * slot, so concurrent groups cannot steal each other's failures.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}

    /** Waits for stragglers; a pending exception is dropped (it was
     * the caller's to collect via wait()). */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Enqueue a task on the pool, tracked by this group. */
    void submit(ThreadPool::Task task);

    /** Enqueue tasks as one batch (ThreadPool::submitAll), tracked by
     * this group. */
    void submitAll(std::vector<ThreadPool::Task> tasks);

    /** Block until every task submitted through this group has
     * finished; rethrows the first exception one raised. */
    void wait();

  private:
    ThreadPool &pool_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t unfinished_ = 0;
    std::exception_ptr firstError_;
};

/**
 * Run fn(i) for i in [0, n) on the pool and wait. Exceptions
 * propagate per TaskGroup::wait(). fn must be safe to invoke
 * concurrently for distinct i. Waits only for its own tasks, so
 * concurrent parallelFors may share one pool.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_THREAD_POOL_HH
