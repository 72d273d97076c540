/**
 * @file
 * Unit tests for the work-stealing thread pool: completion,
 * one-worker submission order, index-ordered results, exception
 * propagation, reuse after wait, nested submission, and clean
 * shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "driver/thread_pool.hh"

namespace dvi
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    driver::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SingleThreadWorks)
{
    driver::ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, OneWorkerRunsTasksInSubmissionOrder)
{
    // A one-worker campaign must run its jobs in index order, seeing
    // the whole rest of the batch queued, however soon the worker
    // woke: its telemetry stream (job order, progress queue depth) is
    // documented as deterministic.
    driver::ThreadPool pool(1);
    constexpr std::size_t n = 64;
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::size_t> order;
        std::vector<std::size_t> depth;
        driver::parallelFor(pool, n, [&](std::size_t i) {
            order.push_back(i);
            depth.push_back(pool.queueDepth());
        });
        ASSERT_EQ(order.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(order[i], i) << "iteration " << iter;
            ASSERT_EQ(depth[i], n - 1 - i) << "iteration " << iter;
        }
    }
}

TEST(ThreadPool, ParallelForOrdersResultsByIndex)
{
    driver::ThreadPool pool(4);
    std::vector<std::size_t> out(500, 0);
    driver::parallelFor(pool, out.size(),
                        [&out](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPool, WaitWithNoTasksReturns)
{
    driver::ThreadPool pool(2);
    pool.wait();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait)
{
    driver::ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 25; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesFirstException)
{
    driver::ThreadPool pool(4);
    std::atomic<int> completed{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&completed, i] {
            if (i == 13)
                throw std::runtime_error("boom");
            ++completed;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Every non-throwing task still ran.
    EXPECT_EQ(completed.load(), 63);
    // The error is consumed: the pool is usable again.
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPool, WorkersCanSubmit)
{
    driver::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            for (int j = 0; j < 4; ++j)
                pool.submit([&count] { ++count; });
        });
    }
    // Note: wait() waits for *all* submitted tasks, including the
    // nested ones, because unfinished counts them the moment they
    // are submitted (before their parent finishes).
    pool.wait();
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> count{0};
    {
        driver::ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must drain and join without
        // hanging or crashing.
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(TaskGroup, WaitsOnlyForItsOwnTasks)
{
    // Two groups on one pool: finishing group A must not block on
    // group B's slow tasks — the property dvi-serve needs to run
    // concurrent campaigns on a shared pool. wait() never runs
    // tasks itself, so one worker stays free for `quick`.
    driver::ThreadPool pool(4);
    std::atomic<int> fast{0};
    std::atomic<int> slowDone{0};
    std::atomic<bool> release{false};

    driver::TaskGroup slow(pool);
    for (unsigned i = 0; i + 1 < pool.numThreads(); ++i)
        slow.submit([&release, &slowDone] {
            while (!release.load())
                std::this_thread::yield();
            ++slowDone;
        });

    driver::TaskGroup quick(pool);
    for (int i = 0; i < 16; ++i)
        quick.submit([&fast] { ++fast; });
    quick.wait();  // must return while `slow` is still parked
    EXPECT_EQ(fast.load(), 16);
    EXPECT_EQ(slowDone.load(), 0);

    release.store(true);
    slow.wait();
    EXPECT_EQ(slowDone.load(), static_cast<int>(pool.numThreads()) - 1);
}

TEST(TaskGroup, PropagatesFirstExceptionAndStaysUsable)
{
    driver::ThreadPool pool(2);
    driver::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        group.submit([&ran, i] {
            if (i == 3)
                throw std::runtime_error("task boom");
            ++ran;
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 7);

    // The error is consumed; the group accepts more work.
    group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 8);
}

TEST(TaskGroup, DestructorWaits)
{
    driver::ThreadPool pool(2);
    std::atomic<int> count{0};
    {
        driver::TaskGroup group(pool);
        for (int i = 0; i < 32; ++i)
            group.submit([&count] { ++count; });
        // No wait(): the destructor must block until all 32 ran.
    }
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(driver::ThreadPool::hardwareThreads(), 1u);
    driver::ThreadPool pool(0);  // 0 = hardware concurrency
    EXPECT_GE(pool.numThreads(), 1u);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

} // namespace
} // namespace dvi
