/**
 * @file
 * Implementation of the persistent fork/join pool.
 */
#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace pod {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads)
{
    POD_CHECK_ARG(num_threads >= 1,
                  "thread pool needs at least one thread");
    profile_.assign(static_cast<size_t>(num_threads),
                    telemetry::ThreadStat{});
    finish_time_.assign(static_cast<size_t>(num_threads), 0.0);
    deques_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
        deques_.push_back(std::make_unique<StealDeque>());
    }
    workers_.reserve(static_cast<size_t>(num_threads - 1));
    for (int i = 0; i < num_threads - 1; ++i) {
        workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
}

int
ThreadPool::ResolveThreads(int requested)
{
    if (requested >= 1) return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

void
ThreadPool::EnableProfiling(bool on)
{
    // The mutex pairs this write with the workers' epoch-wait
    // acquisition; the contract (call between rounds from the driving
    // thread) rules out mid-epoch toggles.
    std::lock_guard<std::mutex> lock(mu_);
    profiling_ = on;
}

std::vector<telemetry::ThreadStat>
ThreadPool::Profile() const
{
    // Copy under mu_: a by-reference view handed out between epochs
    // would be mutated by the next epoch's worker folds while the
    // holder reads it. A locked snapshot makes any interleaving of
    // reads and rounds safe.
    std::lock_guard<std::mutex> lock(mu_);
    return profile_;
}

void
ThreadPool::ResetProfile()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& stat : profile_) stat = telemetry::ThreadStat{};
}

void
ThreadPool::RunTasks(int slot)
{
    const bool prof = profiling_;
    double busy = 0.0;
    double steal_busy = 0.0;
    long tasks = 0;
    long steals = 0;
    StealDeque& own = *deques_[static_cast<size_t>(slot)];
    while (true) {
        int index = -1;
        bool stolen = false;
        {
            std::lock_guard<std::mutex> lock(own.mu);
            if (!own.items.empty()) {
                index = own.items.front();
                own.items.pop_front();
            }
        }
        if (index < 0) {
            // Own deque drained: scan the neighbours round-robin and
            // steal from the thief end (the victim's smallest
            // remaining estimate — its owner keeps the fat front).
            for (int k = 1; k < num_threads_ && index < 0; ++k) {
                StealDeque& victim =
                    *deques_[static_cast<size_t>((slot + k) %
                                                 num_threads_)];
                std::lock_guard<std::mutex> lock(victim.mu);
                if (!victim.items.empty()) {
                    index = victim.items.back();
                    victim.items.pop_back();
                    stolen = true;
                }
            }
        }
        // Nothing queued anywhere: only the caller seeds deques, so no
        // work can reappear this epoch. Leaving keeps idle threads
        // parked instead of spinning.
        if (index < 0) break;
        const double t0 = prof ? telemetry::WallSeconds() : 0.0;
        try {
            (*task_)(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_) error_ = std::current_exception();
        }
        if (prof) {
            const double dt = telemetry::WallSeconds() - t0;
            if (stolen) {
                steal_busy += dt;
                ++steals;
            } else {
                busy += dt;
            }
            ++tasks;
        }
    }
    if (prof) {
        // Timestamp the moment this thread ran out of work; after the
        // barrier the caller turns it into barrier-wait time.
        const double finished = telemetry::WallSeconds();
        const auto s = static_cast<size_t>(slot);
        std::lock_guard<std::mutex> lock(mu_);
        profile_[s].busy += busy;
        profile_[s].steal_busy += steal_busy;
        profile_[s].tasks += tasks;
        profile_[s].steals += steals;
        finish_time_[s] = finished;
    }
}

void
ThreadPool::WorkerLoop(int slot)
{
    long seen_epoch = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] {
                return stop_ || epoch_ != seen_epoch;
            });
            if (stop_) return;
            seen_epoch = epoch_;
        }
        RunTasks(slot);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++workers_done_;
        }
        done_cv_.notify_one();
    }
}

void
ThreadPool::ParallelForTasks(const std::vector<SeededTask>& tasks,
                             const std::function<void(int)>& task)
{
    if (tasks.empty()) return;

    // LPT order: descending estimate, stable so ties keep caller
    // order — scheduling stays deterministic for a given input.
    sorted_.assign(tasks.begin(), tasks.end());
    std::stable_sort(sorted_.begin(), sorted_.end(),
                     [](const SeededTask& a, const SeededTask& b) {
                         return a.estimated_work > b.estimated_work;
                     });

    if (num_threads_ == 1 || tasks.size() == 1) {
        // Inline degenerate path: no synchronization, tasks run in
        // seeded order on the caller, exceptions propagate directly.
        // Everything is caller busy time.
        const bool prof = profiling_;
        const double t0 = prof ? telemetry::WallSeconds() : 0.0;
        for (const SeededTask& t : sorted_) task(t.index);
        if (prof) {
            profile_[0].busy += telemetry::WallSeconds() - t0;
            profile_[0].tasks += static_cast<long>(sorted_.size());
        }
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        // Greedy LPT bin-packing: each task (fattest first) onto the
        // currently least-loaded deque. Owners pop from the front, so
        // every thread starts on its fattest seed. The floor keeps
        // all-zero estimates spreading round-robin instead of piling
        // onto deque 0.
        load_.assign(static_cast<size_t>(num_threads_), 0.0);
        for (const SeededTask& t : sorted_) {
            size_t best = 0;
            for (size_t s = 1; s < load_.size(); ++s) {
                if (load_[s] < load_[best]) best = s;
            }
            deques_[best]->items.push_back(t.index);
            load_[best] += std::max(t.estimated_work, 1.0);
        }
        task_ = &task;
        workers_done_ = 0;
        error_ = nullptr;
        ++epoch_;
    }
    work_cv_.notify_all();

    RunTasks(0);  // the caller is one of the executing threads

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] {
            return workers_done_ ==
                   static_cast<int>(workers_.size());
        });
        task_ = nullptr;
        error = error_;
        error_ = nullptr;
        if (profiling_) {
            // Every executing thread has stamped finish_time_ by now
            // (workers increment workers_done_ only after RunTasks);
            // the gap to the epoch's end is its barrier wait.
            const double epoch_end = telemetry::WallSeconds();
            for (size_t s = 0; s < profile_.size(); ++s) {
                profile_[s].barrier_wait += epoch_end - finish_time_[s];
            }
        }
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace pod
