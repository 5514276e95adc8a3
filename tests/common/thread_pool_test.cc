/**
 * @file
 * Tests for the fork/join worker pool behind the parallel cluster
 * engine: the barrier contract (every task of an epoch completes
 * before ParallelForTasks returns, and epochs never overlap),
 * exception propagation from workers, pool reuse across many epochs,
 * the degenerate zero-task / one-task / one-thread paths, LPT seeding,
 * stealing, and the per-thread profile.
 * This file is part of the TSan CI net (`common.` filter).
 */
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pod {
namespace {

/** Seeds with uniform estimates for n indices. */
std::vector<ThreadPool::SeededTask>
UniformSeeds(int n, double estimate = 1.0)
{
    std::vector<ThreadPool::SeededTask> seeds;
    for (int i = 0; i < n; ++i) seeds.push_back({i, estimate});
    return seeds;
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(97);
        for (auto& h : hits) h.store(0);
        pool.ParallelForTasks(UniformSeeds(97), [&](int i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolTest, BarrierCompletesEpochBeforeReturning)
{
    // The determinism-critical property (docs/DESIGN.md S8): when
    // ParallelForTasks returns, every task has fully executed and its
    // writes are visible to the caller — so a later epoch can never
    // observe or race a predecessor's in-flight task.
    ThreadPool pool(4);
    std::vector<int> values(64, 0);  // plain ints: visibility is the
                                     // barrier's job, not atomics'
    for (int epoch = 1; epoch <= 8; ++epoch) {
        pool.ParallelForTasks(UniformSeeds(64), [&, epoch](int i) {
            // Each task sees the *previous* epoch fully applied.
            EXPECT_EQ(values[static_cast<size_t>(i)], epoch - 1);
            values[static_cast<size_t>(i)] = epoch;
        });
        long sum = std::accumulate(values.begin(), values.end(), 0l);
        EXPECT_EQ(sum, 64l * epoch);
    }
}

TEST(ThreadPoolTest, PropagatesWorkerExceptionAndStaysUsable)
{
    ThreadPool pool(3);
    constexpr int kTasks = 32;
    std::vector<std::atomic<int>> runs(kTasks);
    for (auto& r : runs) r.store(0);
    EXPECT_THROW(
        pool.ParallelForTasks(UniformSeeds(kTasks),
                              [&](int i) {
                                  runs[static_cast<size_t>(i)]
                                      .fetch_add(1);
                                  if (i == 7) {
                                      throw std::runtime_error(
                                          "task 7");
                                  }
                              }),
        std::runtime_error);
    // The failing epoch still ran every task, the thrower included,
    // exactly once...
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
    // ...and the pool is reusable afterwards.
    std::atomic<int> after{0};
    pool.ParallelForTasks(UniformSeeds(8),
                          [&](int) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPoolTest, PropagatesExceptionFromInlinePath)
{
    // One-thread pool: every task runs inline on the caller.
    ThreadPool pool(1);
    EXPECT_THROW(pool.ParallelForTasks(
                     UniformSeeds(4),
                     [](int) { throw std::logic_error("inline"); }),
                 std::logic_error);
}

TEST(ThreadPoolTest, TasksExceptionFromInlinePathPropagates)
{
    // Multi-thread pool handed a single task: the other inline path.
    ThreadPool pool(4);
    EXPECT_THROW(pool.ParallelForTasks(
                     {{3, 1.0}},
                     [](int) { throw std::logic_error("single"); }),
                 std::logic_error);
}

TEST(ThreadPoolTest, ReuseAcrossManyEpochsIsDeterministic)
{
    // A simulation issues hundreds of thousands of barriers on one
    // pool; accumulate a per-slot sum over many epochs and check the
    // closed form — any lost wakeup, double-run or skipped index
    // breaks it.
    ThreadPool pool(4);
    constexpr int kSlots = 33;
    constexpr int kEpochs = 500;
    std::vector<long> sums(kSlots, 0);
    for (int e = 0; e < kEpochs; ++e) {
        pool.ParallelForTasks(UniformSeeds(kSlots), [&](int i) {
            sums[static_cast<size_t>(i)] += i + 1;
        });
    }
    for (int i = 0; i < kSlots; ++i) {
        EXPECT_EQ(sums[static_cast<size_t>(i)],
                  static_cast<long>(kEpochs) * (i + 1));
    }
}

TEST(ThreadPoolTest, TasksReuseAcrossManyEpochsIsDeterministic)
{
    // The skewed-estimate analogue of the test above: LPT deals the
    // deques unevenly every epoch, so tasks change threads (by
    // stealing) from one epoch to the next. Shared non-atomic state
    // per index stays safe because the barrier orders the epochs;
    // TSan verifies the handoffs.
    ThreadPool pool(4);
    constexpr int kSlots = 17;
    constexpr int kEpochs = 250;
    std::vector<long> sums(kSlots, 0);
    for (int e = 0; e < kEpochs; ++e) {
        std::vector<ThreadPool::SeededTask> seeds;
        for (int i = 0; i < kSlots; ++i) {
            seeds.push_back({i, static_cast<double>(kSlots - i)});
        }
        pool.ParallelForTasks(seeds, [&](int i) {
            sums[static_cast<size_t>(i)] += i + 1;
        });
    }
    for (int i = 0; i < kSlots; ++i) {
        EXPECT_EQ(sums[static_cast<size_t>(i)],
                  static_cast<long>(kEpochs) * (i + 1));
    }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.ParallelForTasks({}, [&](int) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleTaskRunsInlineOnCaller)
{
    ThreadPool pool(4);
    std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.ParallelForTasks({{0, 1.0}}, [&](int) {
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, TasksZeroIsANoOpAndSingleRunsInline)
{
    // The same two degenerate inputs on a one-thread pool, where the
    // single task also carries a non-zero index.
    ThreadPool pool(1);
    bool ran = false;
    pool.ParallelForTasks({}, [&](int) { ran = true; });
    EXPECT_FALSE(ran);

    std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    int runs = 0;
    pool.ParallelForTasks({{5, 2.0}}, [&](int i) {
        EXPECT_EQ(i, 5);
        ran_on = std::this_thread::get_id();
        ++runs;
    });
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, MoreThreadsThanTasks)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto& h : hits) h.store(0);
    pool.ParallelForTasks(UniformSeeds(3), [&](int i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ResolveThreadsClampsToHardware)
{
    EXPECT_EQ(ThreadPool::ResolveThreads(3), 3);
    EXPECT_GE(ThreadPool::ResolveThreads(0), 1);
    EXPECT_GE(ThreadPool::ResolveThreads(-1), 1);
}

TEST(ThreadPoolTest, RejectsNonPositiveThreadCount)
{
    EXPECT_DEATH(ThreadPool(0), "at least one thread");
}

TEST(ThreadPoolTest, TasksInlinePathRunsInSeededLptOrder)
{
    // One thread: tasks run one after another in descending-estimate
    // order, ties keeping caller order.
    ThreadPool pool(1);
    std::vector<int> order;
    pool.ParallelForTasks({{0, 1.0}, {1, 5.0}, {2, 3.0}, {3, 3.0}},
                          [&](int i) { order.push_back(i); });
    const std::vector<int> expected = {1, 2, 3, 0};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, TasksZeroEstimatesStillCompleteEverywhere)
{
    // All-zero estimates exercise the seeding floor (spread instead
    // of piling onto one deque); correctness must not care.
    ThreadPool pool(4);
    constexpr int kTasks = 31;
    std::vector<std::atomic<int>> runs(kTasks);
    for (auto& r : runs) r.store(0);
    pool.ParallelForTasks(UniformSeeds(kTasks, 0.0), [&](int i) {
        runs[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, TasksStealWhenOwnDequeEmpties)
{
    // Deterministic steal setup with 2 threads and estimates
    // {10, 9, 8}: LPT packs deque0 = [t0], deque1 = [t1, t2]. The
    // thread that runs t1 blocks until t2 has executed — which can
    // only happen if the other thread, its own deque drained, steals
    // t2 from the back of deque1. A broken steal path times out here
    // rather than deadlocking.
    ThreadPool pool(2);
    pool.EnableProfiling(true);
    std::atomic<bool> t2_ran{false};
    bool timed_out = false;
    pool.ParallelForTasks({{0, 10.0}, {1, 9.0}, {2, 8.0}}, [&](int i) {
        if (i == 2) t2_ran.store(true);
        if (i == 1) {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            while (!t2_ran.load()) {
                if (std::chrono::steady_clock::now() > deadline) {
                    timed_out = true;
                    break;
                }
                std::this_thread::yield();
            }
        }
    });
    EXPECT_FALSE(timed_out) << "t2 was never stolen";
    long steals = 0;
    for (const auto& stat : pool.Profile()) steals += stat.steals;
    EXPECT_GE(steals, 1);
}

TEST(ThreadPoolTest, ProfilingCountsTasksAndBusyTime)
{
    // Every task is counted once, stolen or not, and every time
    // bucket stays non-negative.
    ThreadPool pool(4);
    pool.EnableProfiling(true);
    std::atomic<long> total{0};
    pool.ParallelForTasks(UniformSeeds(64),
                          [&](int i) { total.fetch_add(i); });
    pool.ParallelForTasks(UniformSeeds(64),
                          [&](int i) { total.fetch_add(i); });

    const auto& profile = pool.Profile();
    ASSERT_EQ(profile.size(), 4u);
    long tasks = 0;
    long steals = 0;
    for (const auto& stat : profile) {
        tasks += stat.tasks;
        steals += stat.steals;
        EXPECT_GE(stat.busy, 0.0);
        EXPECT_GE(stat.steal_busy, 0.0);
        EXPECT_GE(stat.barrier_wait, 0.0);
    }
    EXPECT_EQ(tasks, 128);
    EXPECT_LE(steals, tasks);

    pool.ResetProfile();
    for (const auto& stat : pool.Profile()) {
        EXPECT_EQ(stat.tasks, 0);
        EXPECT_EQ(stat.steals, 0);
        EXPECT_DOUBLE_EQ(stat.busy, 0.0);
        EXPECT_DOUBLE_EQ(stat.steal_busy, 0.0);
        EXPECT_DOUBLE_EQ(stat.barrier_wait, 0.0);
    }
}

TEST(ThreadPoolTest, ProfilingAttributesBarrierWaitToFastThreads)
{
    // One deliberately slow task: the other executing thread finishes
    // its (empty) share early and must be charged barrier-wait time
    // roughly matching the straggler.
    ThreadPool pool(2);
    pool.EnableProfiling(true);
    pool.ParallelForTasks(UniformSeeds(2), [&](int i) {
        if (i == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    const auto& profile = pool.Profile();
    ASSERT_EQ(profile.size(), 2u);
    double total_busy = 0.0;
    double total_wait = 0.0;
    for (const auto& stat : profile) {
        total_busy += stat.busy + stat.steal_busy;
        total_wait += stat.barrier_wait;
    }
    // The straggler contributes >= 20 ms busy; the other thread waits
    // for it (timing slop keeps the bound loose).
    EXPECT_GE(total_busy, 0.015);
    EXPECT_GE(total_wait, 0.010);
}

TEST(ThreadPoolTest, ProfilingOffRecordsNothing)
{
    ThreadPool pool(2);
    pool.ParallelForTasks(UniformSeeds(8), [](int) {});
    for (const auto& stat : pool.Profile()) {
        EXPECT_EQ(stat.tasks, 0);
        EXPECT_EQ(stat.steals, 0);
        EXPECT_DOUBLE_EQ(stat.busy, 0.0);
        EXPECT_DOUBLE_EQ(stat.steal_busy, 0.0);
        EXPECT_DOUBLE_EQ(stat.barrier_wait, 0.0);
    }
}

TEST(ThreadPoolTest, ProfilingInlinePathChargesCaller)
{
    ThreadPool pool(1);
    pool.EnableProfiling(true);
    pool.ParallelForTasks(UniformSeeds(5), [](int) {});
    const auto& profile = pool.Profile();
    ASSERT_EQ(profile.size(), 1u);
    EXPECT_EQ(profile[0].tasks, 5);
    EXPECT_EQ(profile[0].steals, 0);
    EXPECT_GE(profile[0].busy, 0.0);
}

TEST(ThreadPoolTest, ProfileSnapshotIsImmutableAcrossLaterEpochs)
{
    // Profile() returns a copy taken under the pool mutex: a snapshot
    // held across later rounds must stay frozen while the next
    // epochs' worker folds update the live profile.
    ThreadPool pool(4);
    pool.EnableProfiling(true);
    pool.ParallelForTasks(UniformSeeds(8), [](int) {});
    const std::vector<telemetry::ThreadStat> snapshot = pool.Profile();
    long snap_tasks = 0;
    for (const auto& stat : snapshot) snap_tasks += stat.tasks;
    EXPECT_EQ(snap_tasks, 8);

    for (int e = 0; e < 100; ++e) {
        pool.ParallelForTasks(UniformSeeds(8), [](int) {});
    }
    long snap_tasks_after = 0;
    for (const auto& stat : snapshot) snap_tasks_after += stat.tasks;
    EXPECT_EQ(snap_tasks_after, 8);

    long live_tasks = 0;
    for (const auto& stat : pool.Profile()) live_tasks += stat.tasks;
    EXPECT_EQ(live_tasks, 8 + 100 * 8);
}

}  // namespace
}  // namespace pod
