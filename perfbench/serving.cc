/**
 * @file
 * Shared serving-workload pieces: configuration, the timing scheduler
 * decorator, report digests and request checks.
 */
#include "serving.h"

#include <cmath>
#include <string>

namespace perfbench {

using pod::serve::Phase;
using pod::serve::RequestState;

pod::serve::ServingConfig
ReplicaConfig()
{
    pod::serve::ServingConfig config;
    config.model = pod::model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = pod::core::Backend::kPod;
    config.kv_policy = pod::serve::KvPolicy::kWatermark;
    config.kv_preempt_mode = pod::serve::PreemptMode::kRecompute;
    config.kv_bucket = 2048;
    config.context_bucket = 2048;
    config.decode_bs_bucket = 16;
    return config;
}

TimedScheduler::TimedScheduler(std::unique_ptr<pod::serve::Scheduler> inner,
                               SpanRecorder* recorder, bool audit)
    : inner_(std::move(inner)), recorder_(recorder), audit_(audit)
{
}

pod::serve::SchedulingDecision
TimedScheduler::Next(double now, std::vector<RequestState>& requests,
                     pod::serve::KvAllocator& kv, size_t active_begin,
                     size_t& admitted_end)
{
    double t0 = Now();
    pod::serve::SchedulingDecision d =
        inner_->Next(now, requests, kv, active_begin, admitted_end);
    double t1 = Now();
    next_seconds.Add(t1 - t0);
    total_seconds += t1 - t0;
    if (recorder_ != nullptr) {
        recorder_->Add("serve.scheduler_next", t0, t1, parent);
    }
    admissions += static_cast<long>(d.admissions.size());
    restores += static_cast<long>(d.restores.size());
    preemptions += static_cast<long>(d.preemptions.size());
    if (!d.batch.Empty()) {
        ++batches;
        batch_tokens += d.batch.TotalTokens();
        batch_decodes += static_cast<double>(d.batch.decodes.size());
    }
    if (audit_) {
        if (credited.size() < requests.size()) {
            credited.resize(requests.size(), 0);
            lost.resize(requests.size(), 0);
        }
        for (const auto& a : d.admissions) credited[a.req_index] += a.cached_tokens;
        for (const auto& t : d.restores) credited[t.req_index] += t.cached_tokens;
        // The engine resets a recompute victim's progress after Next()
        // returns, so `prefilled` still holds the work being thrown away.
        for (const auto& t : d.preemptions) {
            if (t.mode == pod::serve::PreemptMode::kRecompute) {
                lost[t.req_index] += requests[t.req_index].prefilled;
            }
        }
        for (const auto& p : d.batch.prefills) credited[p.req_index] += p.chunk_len;
    }
    return d;
}

std::vector<double>
Digest(const pod::serve::MetricsReport& r)
{
    return {static_cast<double>(r.num_requests),
            r.makespan,
            r.requests_per_minute,
            static_cast<double>(r.iterations),
            r.ttft.Sum(),
            r.ttft.Percentile(50),
            r.ttft.Percentile(99),
            r.tbt.Sum(),
            r.tbt.Percentile(99),
            r.latency.Sum(),
            r.frac_stalled_200ms,
            r.mean_batch_tokens,
            static_cast<double>(r.preemptions),
            static_cast<double>(r.preemptions_recompute),
            static_cast<double>(r.requests_preempted),
            static_cast<double>(r.sim_fastpath_events),
            static_cast<double>(r.sim_fallback_events),
            static_cast<double>(r.prefill_tokens_processed),
            static_cast<double>(r.decode_tokens_processed),
            static_cast<double>(r.prefix_hits),
            static_cast<double>(r.prefix_misses),
            static_cast<double>(r.prefix_hit_blocks),
            static_cast<double>(r.prefix_evicted_blocks),
            static_cast<double>(r.prefix_cached_blocks),
            static_cast<double>(r.prefix_tokens_saved)};
}

void
CheckRequests(RunResult& result, const std::vector<RequestState>& states,
              long completed)
{
    long finished = 0;
    for (const RequestState& s : states) {
        bool done = s.phase == Phase::kFinished;
        finished += done ? 1 : 0;
        double ttft = s.first_token_time - s.request.arrival_time;
        double latency = s.finish_time - s.request.arrival_time;
        bool ok = done && s.decoded == s.request.decode_tokens &&
                  std::isfinite(latency) && ttft >= 0.0 && ttft <= latency;
        result.Check(ok, "request " + std::to_string(s.request.id));
    }
    if (completed >= 0) {
        result.Check(completed == finished &&
                         finished == static_cast<long>(states.size()),
                     "completions " + std::to_string(completed) +
                         " != requests " + std::to_string(states.size()));
    }
}

void
PutSimulatedServe(RunResult& result, const pod::serve::MetricsReport& report,
                  long attn_hits, long attn_misses)
{
    long lookups = attn_hits + attn_misses;
    result.Put("serve.attn_cache_hit_ratio",
               lookups > 0 ? double(attn_hits) / lookups : 0.0, "share",
               lookups);
    result.Put("serve.attn_cache_lookups", double(lookups), "count");
    long hashable = report.prefix_hits + report.prefix_misses;
    result.Put("serve.prefix.hit_ratio",
               hashable > 0 ? double(report.prefix_hits) / hashable : 0.0,
               "share", hashable);
    result.Put("serve.prefix.hashable_admissions", double(hashable), "count");
    double prefill = double(report.prefill_tokens_processed) +
                     double(report.prefix_tokens_saved);
    result.Put("serve.prefix.tokens_saved_share",
               prefill > 0 ? report.prefix_tokens_saved / prefill : 0.0,
               "share");
    result.Put("serve.prefix.evicted_blocks",
               double(report.prefix_evicted_blocks), "count");
    result.Put("serve.sim_ttft_p50_s", report.ttft.Percentile(50), "s",
               report.ttft.Count());
    result.Put("serve.sim_ttft_p99_s", report.ttft.Percentile(99), "s",
               report.ttft.Count());
    result.Put("serve.sim_tbt_p99_s", report.tbt.Percentile(99), "s",
               report.tbt.Count());
    double tokens = double(report.prefill_tokens_processed) +
                    double(report.decode_tokens_processed);
    result.Put("serve.sim_tokens_per_s",
               report.makespan > 0 ? tokens / report.makespan : 0.0, "1/s");
    long events = report.sim_fastpath_events + report.sim_fallback_events;
    result.Put("gpusim.events_per_call",
               attn_misses > 0 ? double(events) / attn_misses : 0.0, "count",
               attn_misses);
    result.Put("gpusim.fallback_share",
               events > 0 ? double(report.sim_fallback_events) / events : 0.0,
               "share", events);
}

}  // namespace perfbench
