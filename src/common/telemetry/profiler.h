/**
 * @file
 * Wall-clock profiling primitives for the parallel execution
 * substrate (docs/OBSERVABILITY.md): per-phase timers for the cluster
 * plan/advance/route loop and per-thread busy vs barrier-wait
 * accounting for the worker pool.
 *
 * These measure *host* time, not sim time, so they are inherently
 * non-deterministic and are kept strictly out of the sim-time trace:
 * they surface through the metric registry under `profile.*` names
 * and through printed summaries. Profiling is opt-in; when off, the
 * pool and cluster loop skip every clock read (a single branch), so
 * the exact-golden nets and the --long-smoke budget are unaffected.
 */
#ifndef POD_COMMON_TELEMETRY_PROFILER_H
#define POD_COMMON_TELEMETRY_PROFILER_H

#include <string>
#include <vector>

#include "common/telemetry/registry.h"

namespace pod::telemetry {

/** Monotonic wall clock in seconds (steady_clock). */
double WallSeconds();

/** Accumulated wall time of one named phase. */
struct PhaseStat
{
    double seconds = 0.0;
    long count = 0;

    void
    Accumulate(double start_seconds)
    {
        seconds += WallSeconds() - start_seconds;
        ++count;
    }
};

/**
 * One executing thread's split of an epoch-structured parallel
 * region (docs/DESIGN.md S8.4): `busy` is time spent running tasks
 * seeded onto its own deque, `steal_busy` time spent running tasks
 * it stole from another thread's deque — work that would otherwise
 * have left it idle at the barrier — and `barrier_wait` time between
 * its last task finishing and the epoch's last task completing. The
 * three time buckets are disjoint: busy + steal_busy + barrier_wait
 * covers the thread's epoch residency. `tasks` counts every task the
 * thread ran, stolen or not; `steals` counts the stolen ones.
 *
 * New fields go after `tasks`: aggregate initialization
 * (`ThreadStat{busy, wait, tasks}`) is part of the de-facto API.
 */
struct ThreadStat
{
    double busy = 0.0;
    double barrier_wait = 0.0;
    long tasks = 0;
    double steal_busy = 0.0;
    long steals = 0;
};

/** Profile of one ClusterEngine run (docs/DESIGN.md S8 loop). */
struct ClusterProfile
{
    /** Parallel-advance phase, pool barrier included. */
    PhaseStat advance;

    /** Serial snapshot + route phase. */
    PhaseStat route;

    /** Whole Run() call. */
    PhaseStat run;

    /** Pool rounds actually dispatched (arrivals with no replica
     * work before them skip the pool). */
    long pool_rounds = 0;

    /** Per-executing-thread busy/wait, index 0 = the caller. */
    std::vector<ThreadStat> threads;

    /**
     * Publish under `<prefix>advance.seconds`,
     * `<prefix>thread<i>.busy_seconds`, ... plus pool-wide rollups
     * (`<prefix>pool.busy_seconds`, `.steal_seconds`,
     * `.barrier_wait_seconds`, `.barrier_wait_fraction`, `.steals`,
     * `.tasks`) summed over threads (docs/OBSERVABILITY.md naming
     * scheme; prefix normally "profile.").
     */
    void FillRegistry(MetricRegistry& registry,
                      const std::string& prefix) const;

    /** Multi-line human-readable summary. */
    std::string Summary() const;
};

}  // namespace pod::telemetry

#endif  // POD_COMMON_TELEMETRY_PROFILER_H
