/**
 * @file
 * Unit tests for the FIFO thread pool, driven through parallelFor:
 * completion, one-worker submission order, index-ordered results,
 * an empty batch, first-exception propagation, reuse across calls,
 * and concurrent calls that each wait only for their own tasks.
 */

#include <gtest/gtest.h>

#include <atomic>
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
    driver::parallelFor(pool, 200, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SingleThreadWorks)
{
    driver::ThreadPool pool(1);
    std::atomic<int> count{0};
    driver::parallelFor(pool, 50, [&count](std::size_t) { ++count; });
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

TEST(ThreadPool, ParallelForOfZeroReturns)
{
    driver::ThreadPool pool(2);
    bool ran = false;
    driver::parallelFor(pool, 0, [&ran](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    driver::ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 4; ++round)
        driver::parallelFor(pool, 25,
                            [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesFirstExceptionAfterEveryOtherTask)
{
    driver::ThreadPool pool(4);
    std::vector<std::atomic<int>> ran(64);
    EXPECT_THROW(driver::parallelFor(pool, ran.size(),
                                     [&ran](std::size_t i) {
                                         if (i == 13)
                                             throw std::runtime_error(
                                                 "boom");
                                         ++ran[i];
                                     }),
                 std::runtime_error);
    // parallelFor returned only after every other index had run.
    for (std::size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(ran[i].load(), i == 13 ? 0 : 1) << "index " << i;

    // The error belonged to that call: the pool runs the next one.
    std::atomic<int> count{0};
    driver::parallelFor(pool, 8, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ConcurrentCallsWaitOnlyForTheirOwnTasks)
{
    // Two parallelFor calls on one pool: the quick one must return
    // while the slow one's tasks are parked — the property dvi-serve
    // needs to run concurrent campaigns on a shared pool. The slow
    // batch takes all but one worker, which stays free for `quick`.
    driver::ThreadPool pool(4);
    const std::size_t slowTasks = pool.numThreads() - 1;
    std::atomic<std::size_t> parked{0};
    std::atomic<int> slowDone{0};
    std::atomic<bool> release{false};
    std::thread slow([&] {
        driver::parallelFor(pool, slowTasks, [&](std::size_t) {
            ++parked;
            while (!release.load())
                std::this_thread::yield();
            ++slowDone;
        });
    });
    while (parked.load() < slowTasks)
        std::this_thread::yield();

    std::atomic<int> fast{0};
    driver::parallelFor(pool, 16, [&fast](std::size_t) { ++fast; });
    EXPECT_EQ(fast.load(), 16);
    EXPECT_EQ(slowDone.load(), 0);

    release.store(true);
    slow.join();
    EXPECT_EQ(slowDone.load(), static_cast<int>(slowTasks));
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(driver::ThreadPool::hardwareThreads(), 1u);
    driver::ThreadPool pool(0);  // 0 = hardware concurrency
    EXPECT_GE(pool.numThreads(), 1u);
    std::atomic<int> count{0};
    driver::parallelFor(pool, 1, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1);
}

} // namespace
} // namespace dvi
