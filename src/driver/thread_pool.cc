#include "driver/thread_pool.hh"

#include <exception>

#include "base/failpoint.hh"

namespace dvi
{
namespace driver
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lk(mu);
    return queue.size();
}

void
ThreadPool::push(std::vector<Task> batch)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        for (Task &task : batch)
            queue.push_back(std::move(task));
    }
    if (batch.size() == 1)
        cv.notify_one();
    else
        cv.notify_all();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return;  // stopping, and nothing is left to run
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

namespace
{

/** One parallelFor call's completion state, on the caller's stack:
 * its tasks report here, so the call waits for them alone. */
struct Batch
{
    const std::function<void(std::size_t)> &fn;
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr firstError;

    void
    run(std::size_t i)
    {
        std::exception_ptr error;
        try {
            // Chaos site inside the try: an injected fault surfaces
            // through parallelFor as the batch's first error, the
            // path a real task failure takes.
            DVI_FAILPOINT("pool.task");
            fn(i);
        } catch (...) {
            error = std::current_exception();
        }
        // Notify under the lock: once `remaining` reads 0 the caller
        // may return and destroy this Batch.
        std::lock_guard<std::mutex> lk(mu);
        if (error && !firstError)
            firstError = error;
        if (--remaining == 0)
            done.notify_all();
    }
};

} // namespace

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    Batch batch{fn, {}, {}, n, nullptr};
    std::vector<ThreadPool::Task> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        tasks.emplace_back([&batch, i] { batch.run(i); });
    pool.push(std::move(tasks));

    std::unique_lock<std::mutex> lk(batch.mu);
    batch.done.wait(lk, [&batch] { return batch.remaining == 0; });
    if (batch.firstError)
        std::rethrow_exception(batch.firstError);
}

} // namespace driver
} // namespace dvi
