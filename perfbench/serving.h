/**
 * @file
 * Pieces the two serving workloads share: the replica configuration,
 * a scheduler decorator that times and counts every Scheduler::Next
 * call, a bit-exact digest of a simulated report, and the per-request
 * output checks.
 */
#ifndef PERFBENCH_SERVING_H
#define PERFBENCH_SERVING_H

#include <memory>
#include <vector>

#include "harness.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/scheduler.h"

namespace perfbench {

/** Sarathi token budget (the paper's chunk size). */
constexpr int kChunk = 2048;

/**
 * Llama-3-8B TP-2 on A100 with the POD backend, watermark KV with
 * recompute preemption, and the coarse memo-cache buckets of
 * bench_cluster_scaling --long-smoke.
 */
pod::serve::ServingConfig ReplicaConfig();

/**
 * Wraps the injected Scheduler. Every call is forwarded unchanged; the
 * wrapper records its host time (and a span when a recorder is set),
 * counts lifecycle transitions and batch shape, and, when auditing,
 * tracks each request's prefill credits for the token-accounting
 * check. Used by one thread at a time.
 */
class TimedScheduler : public pod::serve::Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<pod::serve::Scheduler> inner,
                   SpanRecorder* recorder, bool audit);

    using pod::serve::Scheduler::Next;
    pod::serve::SchedulingDecision Next(
        double now, std::vector<pod::serve::RequestState>& requests,
        pod::serve::KvAllocator& kv, size_t active_begin,
        size_t& admitted_end) override;

    std::string Name() const override { return inner_->Name(); }

    /** Parent span of the next recorded call (-1 = root). */
    int64_t parent = -1;

    Samples next_seconds;
    double total_seconds = 0.0;
    long admissions = 0;
    long restores = 0;
    long preemptions = 0;
    long batches = 0;
    double batch_tokens = 0.0;
    double batch_decodes = 0.0;

    /** Audit: prefill tokens credited per request index (chunks plus
     *  cache hits) and prefill lost to recompute preemptions. */
    std::vector<long> credited;
    std::vector<long> lost;

  private:
    std::unique_ptr<pod::serve::Scheduler> inner_;
    SpanRecorder* recorder_;
    bool audit_;
};

/** Simulated report fields, flattened for bit-exact comparison. */
std::vector<double> Digest(const pod::serve::MetricsReport& report);

/**
 * Per-request output checks: each request finished exactly once with
 * all its output tokens, and its TTFT does not exceed its latency.
 * `completed` is the sum of StepResult::completed when the caller
 * stepped the engine itself, or -1.
 */
void CheckRequests(RunResult& result,
                   const std::vector<pod::serve::RequestState>& states,
                   long completed);

/** Simulated per-layer serve.* metrics of a finished run. */
void PutSimulatedServe(RunResult& result,
                       const pod::serve::MetricsReport& report,
                       long attn_hits, long attn_misses);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H
