/**
 * @file
 * Implementation of the serving engine.
 *
 * The incremental accounting invariants (PR 3, extended for the
 * lifecycle redesign):
 *  - `unadmitted_` holds state indices of never-admitted requests in
 *    submission (= arrival) order. The FCFS admission scan admits a
 *    consecutive prefix (head-of-line blocking stops it), and a
 *    never-admitted request can never finish, so the queue only ever
 *    pops at `unadmitted_head_`. Preempted requests left the queue at
 *    their first admission; their transitions flow through the
 *    SchedulingDecision lists instead.
 *  - `arrived_mark_` splits the queue into arrived (<= now) and
 *    future entries; the clock is monotonic, so it only moves forward.
 *  - Token/block counters are integer sums updated at transitions
 *    (Submit, admission, restore, preemption, chunk/decode progress,
 *    finish), so the O(1) Snapshot() is exactly the value a full
 *    rescan computes.
 * Every invariant is pinned by the bit-identical regression tests in
 * tests/serve/serve_regression_test.cc (conservative policy) and the
 * brute-force invariant tests in tests/serve/serve_incremental_test.cc
 * and tests/serve/preemption_test.cc (watermark policy).
 */
#include "serve/engine.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/math_util.h"
#include "model/iteration_cost.h"
#include "serve/prefix/prefix_cache.h"

namespace pod::serve {

namespace {

/** Round v up to a positive multiple of bucket. */
int
BucketUp(int v, int bucket)
{
    if (v <= 0) return 0;
    return RoundUp(v, bucket);
}

}  // namespace

long
ServingConfig::KvTokenCapacity() const
{
    double usable = gpu.hbm_capacity * memory_fraction -
                    model.WeightBytesPerGpu(tensor_parallel);
    POD_CHECK_ARG(usable > 0, "model weights exceed usable GPU memory");
    return static_cast<long>(
        usable / model.KvBytesPerTokenPerGpu(tensor_parallel));
}

ServingEngine::ServingEngine(ServingConfig config,
                             std::unique_ptr<Scheduler> scheduler)
    : config_(std::move(config)), scheduler_(std::move(scheduler))
{
    POD_CHECK_ARG(scheduler_ != nullptr, "engine needs a scheduler");
    config_.model.Validate(config_.tensor_parallel);
    config_.gpu.Validate();
    Reset();
}

double
ServingEngine::CachedAttnLayerTime(int chunk_len, int kv_len,
                                   int decode_bs, int mean_context)
{
    // Bucket the signature.
    int chunk = BucketUp(chunk_len, config_.chunk_bucket);
    int kv = BucketUp(std::max(kv_len, chunk_len), config_.kv_bucket);
    int dbs = decode_bs <= config_.decode_bs_bucket
                  ? decode_bs
                  : BucketUp(decode_bs, config_.decode_bs_bucket);
    int ctx = BucketUp(std::max(mean_context, 1), config_.context_bucket);
    if (chunk == 0) kv = 0;
    if (dbs == 0) ctx = 0;
    if (chunk == 0 && dbs == 0) return 0.0;

    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(chunk))
                    << 40) ^
                   (static_cast<uint64_t>(static_cast<uint32_t>(kv))
                    << 20) ^
                   (static_cast<uint64_t>(static_cast<uint32_t>(dbs))
                    << 44) ^
                   (static_cast<uint64_t>(static_cast<uint32_t>(ctx)) *
                    0x9E3779B97F4A7C15ull);
    if (config_.attn_cache_enabled) {
        auto it = attn_cache_.find(key);
        if (it != attn_cache_.end()) {
            ++attn_cache_hits_;
            return it->second;
        }
    }
    ++attn_cache_misses_;

    kernels::HybridBatch batch;
    batch.shape = config_.model.ShapePerGpu(config_.tensor_parallel);
    if (chunk > 0) {
        batch.prefills.push_back(
            kernels::PrefillItem{chunk, std::max(kv, chunk)});
    }
    if (dbs > 0) {
        batch.decode = kernels::DecodeItem::Uniform(dbs, ctx);
    }
    core::AttnRunResult result = core::RunAttention(
        config_.backend, batch, config_.gpu, config_.attn_options);
    sim_fastpath_events_ += result.analytic_fastpath_events;
    sim_fallback_events_ += result.oracle_fallback_events;
    // The simulated time is a pure function of the bucketed signature,
    // so memoizing it (or not) is bit-invisible to results.
    if (config_.attn_cache_enabled) attn_cache_[key] = result.total_time;
    return result.total_time;
}

double
ServingEngine::IterationTime(const ScheduledBatch& batch,
                             const std::vector<RequestState>& states)
{
    // Attention signature: total chunk tokens, max chunk context,
    // decode count and mean decode context.
    int chunk_total = 0;
    int kv_max = 0;
    for (const auto& p : batch.prefills) {
        chunk_total += p.chunk_len;
        kv_max = std::max(kv_max, p.kv_len_after);
    }
    long ctx_sum = 0;
    for (int idx : batch.decodes) {
        ctx_sum += states[static_cast<size_t>(idx)].ContextLen();
    }
    int dbs = static_cast<int>(batch.decodes.size());
    int mean_ctx =
        dbs > 0 ? static_cast<int>(ctx_sum / dbs) : 0;

    double attn_layer =
        CachedAttnLayerTime(chunk_total, kv_max, dbs, mean_ctx);
    double attn = attn_layer * config_.model.num_layers;

    // Linear ops at the exact token count.
    int tokens = batch.TotalTokens();
    model::LinearCosts linear = model::ComputeLinearCosts(
        config_.model, config_.gpu, config_.tensor_parallel, tokens);
    double linear_total =
        (linear.qkv_proj + linear.out_proj + linear.ffn +
         linear.allreduce + linear.elementwise) *
        config_.model.num_layers;

    // Logits for every decode plus prefills completing this iteration.
    int logit_tokens = dbs;
    for (const auto& p : batch.prefills) {
        const RequestState& state = states[static_cast<size_t>(
            p.req_index)];
        if (state.prefilled + p.chunk_len >= state.PrefillTarget()) {
            ++logit_tokens;
        }
    }
    double logits = 0.0;
    if (logit_tokens > 0) {
        // Roofline of the LM-head GEMM.
        double flops = 2.0 * logit_tokens *
                       static_cast<double>(config_.model.hidden_dim) *
                       config_.model.vocab_size / config_.tensor_parallel;
        double bytes = static_cast<double>(config_.model.hidden_dim) *
                           config_.model.vocab_size * 2.0 /
                           config_.tensor_parallel +
                       static_cast<double>(logit_tokens) *
                           config_.model.vocab_size * 2.0;
        logits = std::max(flops / config_.gpu.TotalTensorFlops(),
                          bytes / config_.gpu.hbm_bandwidth);
    }

    return config_.iteration_overhead + linear_total + attn + logits;
}

void
ServingEngine::Reset()
{
    states_.clear();
    now_ = 0.0;
    iterations_ = 0;
    total_batch_tokens_ = 0.0;
    finished_ = 0;
    active_begin_ = 0;
    admitted_end_ = 0;
    unadmitted_.clear();
    unadmitted_head_ = 0;
    arrived_mark_ = 0;
    running_ = 0;
    preempted_now_ = 0;
    prefill_tokens_pending_ = 0;
    decode_tokens_pending_ = 0;
    pending_unadmitted_blocks_ = 0;
    pending_preempted_blocks_ = 0;
    preemptions_recompute_ = 0;
    preemptions_swap_ = 0;
    swap_time_total_ = 0.0;
    prefill_tokens_processed_ = 0;
    decode_tokens_processed_ = 0;
    long kv_tokens = config_.KvTokenCapacity();
    kv_ = std::make_unique<KvAllocator>(
        config_.kv_policy,
        std::max<long>(1, kv_tokens / config_.kv_block_size),
        config_.kv_block_size, config_.kv_watermark,
        config_.kv_preempt_mode, config_.prefix_cache_enabled);
    kv_bytes_per_token_ =
        config_.model.KvBytesPerTokenPerGpu(config_.tensor_parallel);
    swap_bandwidth_ =
        std::min(config_.gpu.pcie_bandwidth, config_.gpu.hbm_bandwidth);
}

void
ServingEngine::Submit(const Request& request)
{
    POD_CHECK_ARG(request.prefill_tokens > 0, "request needs a prompt");
    POD_CHECK_ARG(request.decode_tokens >= 1,
                  "request needs at least one output token");
    POD_CHECK_ARG(states_.empty() ||
                      request.arrival_time >=
                          states_.back().request.arrival_time,
                  "submissions must be ordered by arrival time");
    RequestState state;
    state.request = request;
    states_.push_back(state);

    if (trace_) {
        trace_->Instant(telemetry::EventKind::kArrival,
                        request.arrival_time,
                        telemetry::TraceRecorder::RequestTrack(request.id),
                        request.prefill_tokens, request.decode_tokens);
    }

    unadmitted_.push_back(static_cast<int>(states_.size()) - 1);
    prefill_tokens_pending_ += request.prefill_tokens;
    pending_unadmitted_blocks_ +=
        kv_->BlocksFor(request.prefill_tokens + request.decode_tokens);
    SyncArrivals();
}

void
ServingEngine::SyncArrivals()
{
    while (arrived_mark_ < unadmitted_.size() &&
           states_[static_cast<size_t>(unadmitted_[arrived_mark_])]
                   .request.arrival_time <= now_) {
        ++arrived_mark_;
    }
}

void
ServingEngine::ApplyAdmissions(const SchedulingDecision& decision)
{
    for (const auto& a : decision.admissions) {
        const int idx = a.req_index;
        // FCFS admissions are exactly the next unadmitted-queue heads.
        POD_ASSERT(unadmitted_head_ < unadmitted_.size() &&
                   unadmitted_[unadmitted_head_] == idx);
        const RequestState& state = states_[static_cast<size_t>(idx)];
        if (trace_) {
            trace_->Instant(
                telemetry::EventKind::kAdmit, now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                state.PrefillTarget());
        }
        ++running_;
        decode_tokens_pending_ += state.request.decode_tokens;
        // Prompt tokens served from the prefix cache never execute.
        prefill_tokens_pending_ -= a.cached_tokens;
        pending_unadmitted_blocks_ -=
            kv_->BlocksFor(state.request.prefill_tokens +
                           state.request.decode_tokens);
        ++unadmitted_head_;
    }
    // Admission never outruns arrival (FCFS stops at future requests).
    if (arrived_mark_ < unadmitted_head_) arrived_mark_ = unadmitted_head_;
}

double
ServingEngine::ApplyLifecycleTransitions(
    const SchedulingDecision& decision, StepResult& result)
{
    double swap_bytes = 0.0;

    for (const auto& t : decision.restores) {
        RequestState& state = states_[static_cast<size_t>(t.req_index)];
        if (trace_) {
            trace_->Instant(
                telemetry::EventKind::kRestore, now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                t.blocks, t.mode == PreemptMode::kSwap ? 1 : 0);
        }
        ++running_;
        --preempted_now_;
        decode_tokens_pending_ +=
            state.request.decode_tokens - state.decoded;
        // The restore reserved exactly the blocks the preemption
        // queued as latent demand (swap footprint / prefill target).
        // A prefix hit covers part of the target from cache, so the
        // reservation shrank by exactly the cached blocks.
        prefill_tokens_pending_ -= t.cached_tokens;
        pending_preempted_blocks_ -=
            t.blocks + kv_->BlocksFor(t.cached_tokens);
        if (t.mode == PreemptMode::kSwap) {
            swap_bytes += static_cast<double>(t.blocks) *
                          kv_->BlockSize() * kv_bytes_per_token_;
        }
    }

    for (const auto& t : decision.preemptions) {
        RequestState& state = states_[static_cast<size_t>(t.req_index)];
        if (trace_) {
            trace_->Instant(
                t.mode == PreemptMode::kRecompute
                    ? telemetry::EventKind::kPreemptRecompute
                    : telemetry::EventKind::kPreemptSwap,
                now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                t.blocks);
        }
        --running_;
        ++preempted_now_;
        ++state.preempt_count;
        ++result.preempted;
        decode_tokens_pending_ -=
            state.request.decode_tokens - state.decoded;
        if (t.mode == PreemptMode::kRecompute) {
            ++preemptions_recompute_;
            // The context (prompt + generated tokens) must be
            // re-prefilled; fold the restored work into the pending
            // prefill counter.
            prefill_tokens_pending_ -=
                state.PrefillTarget() - state.prefilled;
            state.recompute_extra = state.decoded;
            state.prefilled = 0;
            prefill_tokens_pending_ +=
                state.PrefillTarget() - state.prefilled;
            // Re-admission will reserve the new prefill target.
            pending_preempted_blocks_ +=
                kv_->BlocksFor(state.PrefillTarget());
        } else {
            ++preemptions_swap_;
            // Swap-in will restore the evicted footprint verbatim.
            pending_preempted_blocks_ += t.blocks;
            swap_bytes += static_cast<double>(t.blocks) *
                          kv_->BlockSize() * kv_bytes_per_token_;
        }
    }

    // Roofline of the host transfer: the slower of the PCIe link and
    // HBM feeding it (in practice PCIe-bound).
    double swap_time = swap_bytes / swap_bandwidth_;
    swap_time_total_ += swap_time;
    result.swap_time = swap_time;
    return swap_time;
}

void
ServingEngine::FinishRequest(RequestState& state, StepResult& result)
{
    if (trace_) {
        trace_->Instant(
            telemetry::EventKind::kFinish, now_,
            telemetry::TraceRecorder::RequestTrack(state.request.id),
            state.decoded);
    }
    state.phase = Phase::kFinished;
    state.finish_time = now_;
    kv_->Release(state.request.id);
    ++finished_;
    --running_;
    ++result.completed;
}

StepResult
ServingEngine::Step()
{
    POD_ASSERT(kv_ != nullptr);  // the constructor calls Reset()
    StepResult result;
    result.start = now_;

    SchedulingDecision decision =
        scheduler_->Next(now_, states_, *kv_, active_begin_,
                         admitted_end_);
    ApplyAdmissions(decision);
    double swap_time = ApplyLifecycleTransitions(decision, result);
    const ScheduledBatch& batch = decision.batch;
    if (batch.Empty()) {
        // An empty batch implies no lifecycle activity: admitted and
        // restored requests always contribute work, and preemption
        // only happens while scheduling decodes.
        POD_ASSERT(decision.admissions.empty() &&
                   decision.restores.empty() &&
                   decision.preemptions.empty());
        POD_ASSERT(preempted_now_ == 0);
        // Nothing runnable: jump to the next queued arrival (the
        // first unadmitted entry beyond the arrived mark).
        POD_ASSERT_MSG(arrived_mark_ < unadmitted_.size(),
                       "scheduler stuck with %zu unfinished requests",
                       states_.size() - finished_);
        now_ = states_[static_cast<size_t>(unadmitted_[arrived_mark_])]
                   .request.arrival_time;
        SyncArrivals();
        result.kv_utilization = kv_->Utilization();
        return result;
    }

    // Swap transfers serialize with the iteration (vLLM blocks on
    // them), so they stretch this iteration's latency. Zero under
    // the conservative policy.
    double dt = IterationTime(batch, states_) + swap_time;
    now_ += dt;
    ++iterations_;
    total_batch_tokens_ += batch.TotalTokens();
    if (trace_) {
        trace_->Span(telemetry::EventKind::kIteration, result.start, dt,
                     telemetry::TraceRecorder::kEngineTrack,
                     batch.TotalTokens(),
                     static_cast<int64_t>(batch.decodes.size()));
    }

    // Apply prefill progress.
    for (const auto& p : batch.prefills) {
        RequestState& state = states_[static_cast<size_t>(p.req_index)];
        if (trace_) {
            trace_->Span(
                telemetry::EventKind::kPrefillChunk, result.start, dt,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                p.chunk_len, p.kv_len_after);
        }
        state.prefilled += p.chunk_len;
        prefill_tokens_pending_ -= p.chunk_len;
        prefill_tokens_processed_ += p.chunk_len;
        POD_ASSERT(state.prefilled <= state.PrefillTarget());
        if (state.PrefillDone()) {
            // The prompt's KV is fully on-device now: with the prefix
            // cache on, the allocator promotes its blocks into it.
            kv_->OnPrefillComplete(state);
            // The completing iteration emits one output token: the
            // first for a fresh prompt, the next for a request whose
            // context a recompute preemption restored.
            if (state.decoded == 0) {
                state.decoded = 1;
                state.first_token_time = now_;
            } else {
                state.decoded += 1;
                state.tbt.push_back(now_ - state.last_token_time);
            }
            decode_tokens_pending_ -= 1;
            decode_tokens_processed_ += 1;
            state.last_token_time = now_;
            if (state.decoded >= state.request.decode_tokens) {
                FinishRequest(state, result);
            }
        }
    }

    // Apply decode progress.
    for (int idx : batch.decodes) {
        RequestState& state = states_[static_cast<size_t>(idx)];
        state.decoded += 1;
        if (trace_) {
            trace_->Instant(
                telemetry::EventKind::kDecodeToken, now_,
                telemetry::TraceRecorder::RequestTrack(state.request.id),
                state.decoded);
        }
        decode_tokens_pending_ -= 1;
        decode_tokens_processed_ += 1;
        state.tbt.push_back(now_ - state.last_token_time);
        state.last_token_time = now_;
        if (state.decoded >= state.request.decode_tokens) {
            FinishRequest(state, result);
        }
    }

    // Maintain the finished-prefix index and the arrived mark.
    while (active_begin_ < states_.size() &&
           states_[active_begin_].Finished()) {
        ++active_begin_;
    }
    SyncArrivals();

    result.progressed = true;
    result.duration = dt;
    result.batch_tokens = batch.TotalTokens();
    result.kv_utilization = kv_->Utilization();
    return result;
}

double
ServingEngine::NextEventTime() const
{
    if (running_ > 0) return now_;
    if (preempted_now_ > 0) return now_;  // awaiting re-admission
    if (arrived_mark_ > unadmitted_head_) return now_;  // waiting work
    if (arrived_mark_ < unadmitted_.size()) {
        return states_[static_cast<size_t>(unadmitted_[arrived_mark_])]
            .request.arrival_time;
    }
    return std::numeric_limits<double>::infinity();
}

ReplicaSnapshot
ServingEngine::Snapshot() const
{
    POD_ASSERT(kv_ != nullptr);  // the constructor calls Reset()
    ReplicaSnapshot snap;
    snap.gpu_name = config_.gpu.name;
    snap.now = now_;
    snap.submitted = static_cast<int>(states_.size());
    snap.finished = static_cast<int>(finished_);
    snap.outstanding = snap.submitted - snap.finished;
    snap.waiting = static_cast<int>(arrived_mark_ - unadmitted_head_);
    snap.running = running_;
    snap.preempted = preempted_now_;
    snap.prefill_tokens_pending = prefill_tokens_pending_;
    snap.decode_tokens_pending = decode_tokens_pending_;
    snap.iterations = iterations_;
    snap.kv_utilization = kv_->Utilization();
    snap.kv_free_blocks = kv_->FreeBlocks();
    snap.kv_total_blocks = kv_->TotalBlocks();
    if (kv_->TotalBlocks() > 0) {
        snap.kv_pressure =
            snap.kv_utilization +
            static_cast<double>(pending_unadmitted_blocks_ +
                                pending_preempted_blocks_) /
                static_cast<double>(kv_->TotalBlocks());
    }
    snap.kv_watermark_headroom = kv_->WatermarkHeadroom();
    snap.preemptions_recompute = preemptions_recompute_;
    snap.preemptions_swap = preemptions_swap_;
    snap.swap_time_total = swap_time_total_;
    snap.attn_cache_entries = static_cast<long>(attn_cache_.size());
    snap.attn_cache_hits = attn_cache_hits_;
    snap.attn_cache_misses = attn_cache_misses_;
    snap.sim_fastpath_events = sim_fastpath_events_;
    snap.sim_fallback_events = sim_fallback_events_;
    snap.prefill_tokens_processed = prefill_tokens_processed_;
    snap.decode_tokens_processed = decode_tokens_processed_;
    if (const prefix::PrefixCacheStats* ps = kv_->PrefixStats()) {
        snap.prefix_hits = ps->hits;
        snap.prefix_misses = ps->misses;
        snap.prefix_hit_blocks = ps->hit_blocks;
        snap.prefix_evicted_blocks = ps->evicted_blocks;
        snap.prefix_cached_blocks = ps->cached_blocks;
        snap.prefix_shared_blocks = ps->shared_blocks;
        snap.prefix_tokens_saved = ps->prefill_tokens_saved;
    }
    return snap;
}

MetricsReport
ServingEngine::Report() const
{
    POD_CHECK_ARG(Done(), "Report() requires all requests finished");
    MetricsReport report =
        CollectMetrics(states_, now_, iterations_, total_batch_tokens_);
    report.system = scheduler_->Name();
    report.preemptions_recompute = preemptions_recompute_;
    report.preemptions_swap = preemptions_swap_;
    report.swap_time_total = swap_time_total_;
    report.sim_fastpath_events = sim_fastpath_events_;
    report.sim_fallback_events = sim_fallback_events_;
    report.prefill_tokens_processed = prefill_tokens_processed_;
    report.decode_tokens_processed = decode_tokens_processed_;
    if (const prefix::PrefixCacheStats* ps = kv_->PrefixStats()) {
        report.prefix_hits = ps->hits;
        report.prefix_misses = ps->misses;
        report.prefix_hit_blocks = ps->hit_blocks;
        report.prefix_evicted_blocks = ps->evicted_blocks;
        report.prefix_cached_blocks = ps->cached_blocks;
        report.prefix_shared_blocks = ps->shared_blocks;
        report.prefix_tokens_saved = ps->prefill_tokens_saved;
    }
    return report;
}

MetricsReport
ServingEngine::Run(std::vector<Request> requests)
{
    POD_CHECK_ARG(!requests.empty(), "need at least one request");
    std::sort(requests.begin(), requests.end(), ArrivalOrder);

    Reset();
    for (const Request& request : requests) Submit(request);
    while (!Done()) Step();
    return Report();
}

}  // namespace pod::serve
