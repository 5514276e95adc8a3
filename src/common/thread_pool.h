/**
 * @file
 * A small persistent worker pool with one fork/join entry point —
 * the execution substrate of the parallel cluster engine
 * (docs/DESIGN.md S8): `ParallelForTasks` deals cost-estimated tasks
 * longest-first onto per-thread deques and lets idle threads steal
 * queued ones.
 *
 * Design constraints, in order:
 *  1. Determinism-friendly: the entry point is a barrier. Every task
 *     of one call completes (and its writes are visible to the
 *     caller) before the call returns, and no task of a later call
 *     can overlap a task of an earlier one. Each task runs exactly
 *     once, start to finish, on one thread. Callers that give each
 *     index a disjoint part of the state therefore get bit-identical
 *     results at any thread count, including 1.
 *  2. Reusable across epochs: workers are spawned once and parked on
 *     a condition variable between calls, so a simulation issuing
 *     hundreds of thousands of small barriers pays wakeup cost, not
 *     thread-spawn cost.
 *  3. Honest failure: an exception thrown by any task is captured and
 *     rethrown from the entry point on the calling thread after the
 *     barrier (first-capture wins; the remaining tasks still run,
 *     keeping the pool reusable afterwards).
 */
#ifndef POD_COMMON_THREAD_POOL_H
#define POD_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/telemetry/profiler.h"

namespace pod {

/**
 * Persistent fork/join worker pool.
 *
 * `num_threads` counts *executing* threads: the calling thread
 * participates in every ParallelForTasks, so a pool of N spawns N-1
 * workers. A pool of 1 spawns none and runs every task inline on the
 * caller — the degenerate path the serial engines use, with zero
 * synchronization.
 *
 * Not itself thread-safe: one thread drives a given pool (concurrent
 * ParallelForTasks calls on one pool are a caller bug).
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads total executing threads, >= 1. Values above
     *        the hardware concurrency are allowed (useful for
     *        schedule-stress tests) but oversubscribe.
     */
    explicit ThreadPool(int num_threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int NumThreads() const { return num_threads_; }

    /**
     * One task for ParallelForTasks: `estimated_work` is a relative
     * cost estimate in arbitrary units used only for scheduling
     * (longest-processing-time-first seeding) — it never affects
     * which work runs, only where.
     */
    struct SeededTask
    {
        int index = 0;
        double estimated_work = 0.0;
    };

    /**
     * Run task(t.index) exactly once for every t in `tasks`; returns
     * only when all have completed (the barrier). Tasks must not
     * depend on each other.
     *
     * Scheduling: tasks are sorted by descending `estimated_work`
     * (stable, so ties keep caller order) and dealt greedily onto the
     * least-loaded per-thread deque (LPT), so the fattest task starts
     * first instead of last. An owner pops its own deque from the
     * front; a thread whose deque is empty steals from the back of
     * another's (Chase-Lev orientation, mutex-guarded — tasks are
     * coarse enough that lock cost is noise, and the mutex keeps the
     * handoff trivially race-free under TSan).
     *
     * A task that throws counts as finished; the first exception is
     * rethrown after the barrier, all other tasks still run, and the
     * pool stays reusable. With num_threads == 1 (or a single task)
     * everything runs inline on the caller in seeded order and
     * exceptions propagate directly.
     */
    void ParallelForTasks(const std::vector<SeededTask>& tasks,
                          const std::function<void(int)>& task);

    /**
     * Convenience clamp for a thread-count knob: 0 (or less) means
     * "all hardware threads", and the result is always >= 1 even when
     * hardware_concurrency() reports 0 (permitted by the standard).
     */
    static int ResolveThreads(int requested);

    /**
     * Toggle per-thread wall-clock profiling (docs/OBSERVABILITY.md).
     * When on, every epoch splits each executing thread's time into
     * running tasks seeded onto its own deque (`busy`), running tasks
     * stolen from another thread's deque (`steal_busy`) and
     * end-of-epoch idle (`barrier_wait` — from its last task
     * finishing to the epoch's last task finishing). When off
     * (default), no clock is read. Call only between epochs, from the
     * driving thread.
     */
    void EnableProfiling(bool on);

    /**
     * Snapshot of the per-executing-thread profile accumulated since
     * the last ResetProfile(); index 0 is the calling thread.
     * All-zero unless EnableProfiling(true).
     *
     * Returned by value, copied under the pool mutex: workers fold
     * into the live profile at the end of every epoch, so a reference
     * held across a later round would race those folds. The snapshot
     * is coherent (taken between one epoch's final fold and the
     * next epoch's first).
     */
    std::vector<telemetry::ThreadStat> Profile() const;

    void ResetProfile();

  private:
    /** One thread's task queue: front = owner end, back = thief end. */
    struct StealDeque
    {
        std::mutex mu;
        std::deque<int> items;
    };

    void WorkerLoop(int slot);

    /**
     * Pop own deque front / steal from others' backs until no queued
     * task remains anywhere.
     */
    void RunTasks(int slot);

    const int num_threads_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   ///< workers wait for an epoch
    std::condition_variable done_cv_;   ///< caller waits for workers

    // Epoch state (guarded by mu_).
    const std::function<void(int)>* task_ = nullptr;
    int workers_done_ = 0;              ///< workers finished this epoch
    long epoch_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;

    // The caller seeds `deques_` under mu_ before publishing the
    // epoch (workers acquire mu_ to observe the epoch, ordering the
    // seed writes); afterwards each deque is touched only under its
    // own mutex. `sorted_` and `load_` are caller-only scratch kept
    // hot across epochs.
    std::vector<std::unique_ptr<StealDeque>> deques_;
    std::vector<SeededTask> sorted_;
    std::vector<double> load_;

    // Profiling state (see EnableProfiling). `finish_time_[slot]` is
    // written by its owning thread under mu_ during the epoch and
    // read by the caller after the barrier.
    bool profiling_ = false;
    std::vector<telemetry::ThreadStat> profile_;
    std::vector<double> finish_time_;

    std::vector<std::thread> workers_;
};

}  // namespace pod

#endif  // POD_COMMON_THREAD_POOL_H
