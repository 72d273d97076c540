#include "driver/thread_pool.hh"

#include "base/failpoint.hh"
#include "base/logging.hh"

namespace dvi
{
namespace driver
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();
    queues.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        queues.push_back(std::make_unique<WorkerQueue>());
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    try {
        wait();
    } catch (...) {
        // A destructor must not throw; the error was the caller's to
        // collect via wait().
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &w : workers)
        w.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
ThreadPool::submit(Task task)
{
    std::vector<Task> one;
    one.push_back(std::move(task));
    submitAll(std::move(one));
}

void
ThreadPool::submitAll(std::vector<Task> tasks)
{
    const std::size_t n = tasks.size();
    if (n == 0)
        return;
    for (const Task &task : tasks)
        panic_if(!task, "ThreadPool::submit: empty task");
    const std::size_t first =
        nextQueue.fetch_add(n, std::memory_order_relaxed);
    // Count the tasks before publishing them: once one is visible in
    // a deque it can finish (and decrement) at any moment, and wait()
    // must not observe unfinished == 0 while this submission is
    // still in flight.
    unfinished.fetch_add(n, std::memory_order_relaxed);
    submitted_.fetch_add(n, std::memory_order_relaxed);
    queued.fetch_add(n, std::memory_order_release);
    const std::size_t k = queues.size();
    for (std::size_t q = 0; q < n && q < k; ++q) {
        WorkerQueue &wq = *queues[(first + q) % k];
        std::lock_guard<std::mutex> lk(wq.mu);
        for (std::size_t i = q; i < n; i += k)
            wq.tasks.push_back(std::move(tasks[i]));
    }
    {
        // Pair the notify with the waiters' predicate check so a
        // worker that just found every deque empty cannot miss it.
        std::lock_guard<std::mutex> lk(mu);
    }
    if (n == 1)
        cvWork.notify_one();
    else
        cvWork.notify_all();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mu);
    cvIdle.wait(lk, [this] {
        return unfinished.load(std::memory_order_acquire) == 0;
    });
    if (firstError) {
        std::exception_ptr e = firstError;
        firstError = nullptr;
        std::rethrow_exception(e);
    }
}

bool
ThreadPool::popOwn(std::size_t self, Task &out)
{
    std::lock_guard<std::mutex> lk(queues[self]->mu);
    if (queues[self]->tasks.empty())
        return false;
    out = std::move(queues[self]->tasks.front());
    queues[self]->tasks.pop_front();
    queued.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
ThreadPool::steal(std::size_t self, Task &out)
{
    const std::size_t n = queues.size();
    for (std::size_t k = 1; k < n; ++k) {
        const std::size_t victim = (self + k) % n;
        std::lock_guard<std::mutex> lk(queues[victim]->mu);
        if (queues[victim]->tasks.empty())
            continue;
        out = std::move(queues[victim]->tasks.front());
        queues[victim]->tasks.pop_front();
        queued.fetch_sub(1, std::memory_order_relaxed);
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
ThreadPool::runTask(Task &task)
{
    try {
        task();
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!firstError)
            firstError = std::current_exception();
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(mu);
        cvIdle.notify_all();
    }
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        Task task;
        if (popOwn(self, task) || steal(self, task)) {
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lk(mu);
        cvWork.wait(lk, [this] {
            return stopping ||
                   queued.load(std::memory_order_acquire) > 0;
        });
        if (stopping)
            return;
        // queued > 0: retry the deques; a racing thief may still get
        // there first, in which case we simply wait again.
    }
}

TaskGroup::~TaskGroup()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return unfinished_ == 0; });
}

void
TaskGroup::submit(ThreadPool::Task task)
{
    std::vector<ThreadPool::Task> one;
    one.push_back(std::move(task));
    submitAll(std::move(one));
}

void
TaskGroup::submitAll(std::vector<ThreadPool::Task> tasks)
{
    for (const ThreadPool::Task &task : tasks)
        panic_if(!task, "TaskGroup::submit: empty task");
    {
        std::lock_guard<std::mutex> lk(mu_);
        unfinished_ += tasks.size();
    }
    std::vector<ThreadPool::Task> wrapped;
    wrapped.reserve(tasks.size());
    for (ThreadPool::Task &task : tasks)
        wrapped.push_back([this, task = std::move(task)] {
            try {
                // Chaos site inside the group's try: an injected fault
                // surfaces through wait() as the group's firstError —
                // the path a real task-wrapper failure would take.
                DVI_FAILPOINT("pool.task");
                task();
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu_);
                if (!firstError_)
                    firstError_ = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(mu_);
            if (--unfinished_ == 0)
                cv_.notify_all();
        });
    pool_.submitAll(std::move(wrapped));
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return unfinished_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    TaskGroup group(pool);
    std::vector<ThreadPool::Task> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        tasks.push_back([&fn, i] { fn(i); });
    group.submitAll(std::move(tasks));
    group.wait();
}

} // namespace driver
} // namespace dvi
