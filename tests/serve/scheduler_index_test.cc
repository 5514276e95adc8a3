/**
 * @file
 * Differential tests for the schedulers' sub-phase index
 * (serve::SubPhaseIndex, docs/DESIGN.md S8).
 *
 * ReferenceScheduler keeps the scan-based vLLM and Sarathi policies
 * the index replaced, verbatim, as the oracle: every pass walks
 * [active_begin, admitted_end) and filters by phase. Two engines, one
 * per implementation, are stepped in lockstep over seeded traces
 * across scheduler x KV policy x preempt mode x prefix cache x
 * sequence cap, and must agree at every step on the StepResult, the
 * Snapshot(), the scheduling decision and every request state, and
 * on the final report bit for bit. Canaries prove the matrix reaches
 * the index's edge paths: the sequence cap, back-of-set victims, a
 * front request evicting itself, swap restores and prefix-cache
 * hits.
 *
 * The rebuild path is covered separately: Run() twice and Reset()
 * mid-drain against a fresh engine, single-shot Next() calls after
 * hand-made phase edits, and a pass-through decorator shaped like
 * perfbench's TimedScheduler.
 */
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../cluster/report_compare.h"
#include "common/rng.h"
#include "serve/engine.h"
#include "serve/trace.h"

namespace pod::serve {
namespace {

// ---- the oracle: scan-based schedulers, verbatim ----

/**
 * Admission and re-admission, FCFS with head-of-line blocking.
 *
 * One scan in index (= arrival) order over unfinished, non-running
 * requests. Because admission is strictly FCFS, every ever-admitted
 * (hence every preempted) request precedes every never-admitted one,
 * so the scan naturally restores preempted requests before admitting
 * new arrivals — vLLM's rule that waiting requests stay blocked
 * while preempted work exists. Admission stops at the first request
 * the allocator rejects (head-of-line blocking preserved, exactly
 * the pre-redesign AdmitFcfs behaviour under the conservative
 * policy).
 */
void
PlanAdmissions(double now, std::vector<RequestState>& requests,
               KvAllocator& kv, size_t active_begin,
               size_t& admitted_end, SchedulingDecision& decision)
{
    for (size_t i = active_begin; i < requests.size(); ++i) {
        RequestState& state = requests[i];
        if (state.Finished() || state.Admitted()) continue;
        if (state.Preempted()) {
            PreemptMode mode = state.phase == Phase::kPreemptedSwapped
                                   ? PreemptMode::kSwap
                                   : PreemptMode::kRecompute;
            if (!kv.TryAdmit(state)) break;
            state.phase = Phase::kRunning;
            // A prefix hit credits cached prompt tokens as already
            // prefilled; the engine folds the same figure out of its
            // pending-work counters via the recorded transition.
            int cached = kv.LastAdmitCachedTokens();
            if (cached > 0) state.prefilled = cached;
            decision.restores.push_back(SchedulingDecision::Transition{
                static_cast<int>(i), mode, kv.Held(state.request.id),
                cached});
            continue;
        }
        if (state.request.arrival_time > now) break;  // sorted by arrival
        kv.CheckFits(state);
        if (!kv.TryAdmit(state)) break;
        state.phase = Phase::kRunning;
        int cached = kv.LastAdmitCachedTokens();
        if (cached > 0) state.prefilled = cached;
        decision.admissions.push_back(SchedulingDecision::Admission{
            static_cast<int>(i), cached});
        admitted_end = std::max(admitted_end, i + 1);
    }
    // FCFS invariant: everything at or past the watermark was never
    // admitted, so batch-building scans stop there.
    admitted_end = std::min(admitted_end, requests.size());
}

/** Evict one running request and record the transition. */
void
Preempt(std::vector<RequestState>& requests, int req_index,
        KvAllocator& kv, SchedulingDecision& decision)
{
    RequestState& state = requests[static_cast<size_t>(req_index)];
    PreemptMode mode = kv.preempt_mode();
    long blocks = kv.Evict(state, mode);
    state.phase = mode == PreemptMode::kSwap ? Phase::kPreemptedSwapped
                                             : Phase::kPreemptedRecompute;
    decision.preemptions.push_back(
        SchedulingDecision::Transition{req_index, mode, blocks});
}

/**
 * Schedule running decodes, growing each reservation for the token
 * this iteration materializes. When the pool cannot grow, victims
 * are evicted from the back of the *decoding* set (latest arrival =
 * lowest priority among decoders, vLLM's preemption order).
 * Admitted requests still mid-prefill are deliberately exempt from
 * victimhood: their prompt blocks were reserved at admission, they
 * allocate nothing per iteration, and evicting half-processed
 * prefills would burn strictly more recompute work than evicting a
 * decoder frees. The frontmost decoder can always proceed because
 * admission guaranteed its worst-case footprint fits the pool
 * (KvAllocator::CheckFits).
 */
void
ScheduleDecodes(std::vector<RequestState>& requests, KvAllocator& kv,
                size_t active_begin, size_t admitted_end, int max_num_seqs,
                SchedulingDecision& decision)
{
    std::vector<int> running;
    for (size_t i = active_begin; i < admitted_end; ++i) {
        if (requests[i].Admitted() && requests[i].DecodePending()) {
            running.push_back(static_cast<int>(i));
        }
    }
    size_t lo = 0;
    size_t hi = running.size();  // victims pop from the back of [lo, hi)
    while (lo < hi) {
        RequestState& state = requests[static_cast<size_t>(running[lo])];
        while (!kv.CanAppend(state) && hi - lo > 1) {
            --hi;
            Preempt(requests, running[hi], kv, decision);
        }
        if (!kv.CanAppend(state)) {
            Preempt(requests, running[lo], kv, decision);
            ++lo;
            continue;
        }
        kv.Append(state);
        decision.batch.decodes.push_back(running[lo]);
        ++lo;
        if (static_cast<int>(decision.batch.decodes.size()) >=
            max_num_seqs) {
            break;
        }
    }
}

/** The scan-based vLLM (prefill-prioritizing) or Sarathi policy. */
class ReferenceScheduler : public Scheduler
{
  public:
    /** @param token_cap vLLM's max_batched_tokens or Sarathi's
     *        token_budget. */
    ReferenceScheduler(bool sarathi, int token_cap, int max_num_seqs)
        : sarathi_(sarathi), token_cap_(token_cap),
          max_num_seqs_(max_num_seqs)
    {
    }

    using Scheduler::Next;
    SchedulingDecision
    Next(double now, std::vector<RequestState>& requests, KvAllocator& kv,
         size_t active_begin, size_t& admitted_end) override
    {
        return sarathi_
                   ? NextSarathi(now, requests, kv, active_begin,
                                 admitted_end)
                   : NextVllm(now, requests, kv, active_begin,
                              admitted_end);
    }

    std::string Name() const override { return sarathi_ ? "Sarathi" : "vLLM"; }

  private:
    SchedulingDecision
    NextVllm(double now, std::vector<RequestState>& requests,
             KvAllocator& kv, size_t active_begin, size_t& admitted_end)
    {
        const int max_batched_tokens_ = token_cap_;
        SchedulingDecision decision;
        PlanAdmissions(now, requests, kv, active_begin, admitted_end,
                       decision);
        ScheduledBatch& batch = decision.batch;

        // Prefill-prioritizing: if any admitted prompt is unprocessed,
        // run a prefill-only iteration over whole prompts (no chunking).
        // Prompt blocks were reserved at admission, so prefill-only
        // iterations never grow the pool and never preempt.
        int tokens = 0;
        for (size_t i = active_begin; i < admitted_end; ++i) {
            RequestState& state = requests[i];
            if (!state.Admitted() || state.PrefillDone()) continue;
            int remaining = state.PrefillTarget() - state.prefilled;
            if (!batch.prefills.empty() &&
                (tokens + remaining > max_batched_tokens_ ||
                 static_cast<int>(batch.prefills.size()) >= max_num_seqs_)) {
                break;
            }
            batch.prefills.push_back(ScheduledBatch::PrefillChunk{
                static_cast<int>(i), remaining, state.PrefillTarget()});
            tokens += remaining;
        }
        if (!batch.prefills.empty()) {
            return decision;  // decodes pause: the generation stall (Fig. 2a)
        }

        ScheduleDecodes(requests, kv, active_begin, admitted_end,
                        max_num_seqs_, decision);
        return decision;
    }

    SchedulingDecision
    NextSarathi(double now, std::vector<RequestState>& requests,
                KvAllocator& kv, size_t active_begin, size_t& admitted_end)
    {
        const int token_budget_ = token_cap_;
        SchedulingDecision decision;
        PlanAdmissions(now, requests, kv, active_begin, admitted_end,
                       decision);
        ScheduledBatch& batch = decision.batch;

        // All running decodes join every iteration: stall-free batching.
        ScheduleDecodes(requests, kv, active_begin, admitted_end,
                        max_num_seqs_, decision);

        // Prefill chunks fill the remaining token budget (paper S2.1).
        // Chunks draw on blocks reserved at admission, so they never
        // allocate — a decode-evicted victim cannot be re-hit here.
        int budget =
            std::max(0, token_budget_ - static_cast<int>(batch.decodes.size()));
        for (size_t i = active_begin; i < admitted_end && budget > 0; ++i) {
            RequestState& state = requests[i];
            if (!state.Admitted() || state.PrefillDone()) continue;
            int remaining = state.PrefillTarget() - state.prefilled;
            int chunk = std::min(budget, remaining);
            batch.prefills.push_back(ScheduledBatch::PrefillChunk{
                static_cast<int>(i), chunk, state.prefilled + chunk});
            budget -= chunk;
        }
        return decision;
    }

    bool sarathi_;
    int token_cap_;
    int max_num_seqs_;
};

// ---- harness ----

/**
 * Pass-through decorator shaped like perfbench's TimedScheduler:
 * forwards the five-argument Next() unchanged and keeps the last
 * decision for inspection.
 */
class RecordingScheduler : public Scheduler
{
  public:
    explicit RecordingScheduler(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    using Scheduler::Next;
    SchedulingDecision
    Next(double now, std::vector<RequestState>& requests, KvAllocator& kv,
         size_t active_begin, size_t& admitted_end) override
    {
        last = inner_->Next(now, requests, kv, active_begin, admitted_end);
        return last;
    }

    std::string Name() const override { return inner_->Name(); }

    SchedulingDecision last;

  private:
    std::unique_ptr<Scheduler> inner_;
};

/** One point of the configuration matrix. */
struct Case
{
    bool sarathi = true;
    KvPolicy policy = KvPolicy::kWatermark;
    PreemptMode mode = PreemptMode::kRecompute;
    bool prefix_cache = false;
    int max_num_seqs = 256;
    bool sessions = false;
};

std::string
Describe(const Case& c)
{
    std::ostringstream os;
    os << (c.sarathi ? "sarathi" : "vllm") << " "
       << (c.policy == KvPolicy::kWatermark ? "watermark" : "conservative")
       << " " << (c.mode == PreemptMode::kSwap ? "swap" : "recompute")
       << (c.prefix_cache ? " prefix-cache" : "")
       << " max_num_seqs=" << c.max_num_seqs
       << (c.sessions ? " sessions" : " plain");
    return os.str();
}

/** Every configuration for one scheduler and trace kind: policy x
 * preempt mode x prefix cache (recompute only) x sequence cap. */
std::vector<Case>
Matrix(bool sarathi, bool sessions)
{
    std::vector<Case> cases;
    for (KvPolicy policy : {KvPolicy::kConservative, KvPolicy::kWatermark}) {
        for (PreemptMode mode : {PreemptMode::kRecompute, PreemptMode::kSwap}) {
            for (bool cache : {false, true}) {
                if (cache && mode == PreemptMode::kSwap) continue;
                for (int seqs : {4, 256}) {
                    cases.push_back(
                        Case{sarathi, policy, mode, cache, seqs, sessions});
                }
            }
        }
    }
    return cases;
}

ServingConfig
MakeConfig(const Case& c)
{
    ServingConfig config;
    config.tensor_parallel = 2;
    config.backend = core::Backend::kFaSerial;
    // A pool of a few thousand tokens, so the watermark policy
    // preempts (the preemption tests' setting).
    config.memory_fraction = 0.0958;
    config.kv_policy = c.policy;
    // No admission reserve: prompts fill the pool, so a lone decoder
    // next to resident prefills must evict itself (Sarathi).
    config.kv_watermark = 0.0;
    config.kv_preempt_mode = c.mode;
    config.prefix_cache_enabled = c.prefix_cache;
    // Coarse buckets keep kernel simulations rare and the test fast.
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;
    return config;
}

std::unique_ptr<Scheduler>
MakeIndexed(const Case& c)
{
    if (c.sarathi) return std::make_unique<SarathiScheduler>(64, c.max_num_seqs);
    return std::make_unique<VllmScheduler>(2048, c.max_num_seqs);
}

std::unique_ptr<Scheduler>
MakeReference(const Case& c)
{
    return std::make_unique<ReferenceScheduler>(
        c.sarathi, c.sarathi ? 64 : 2048, c.max_num_seqs);
}

/** Requests small enough for the shrunken pool, arriving in bursts. */
std::vector<Request>
MakeTrace(bool sessions, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Request> trace;
    if (sessions) {
        SessionWorkloadSpec spec = SessionWorkloadSpec::Chat();
        spec.num_system_prompts = 2;
        spec.system_tokens_min = 128;
        spec.system_tokens_max = 512;
        spec.user_mean = 64.0;
        spec.user_stddev = 32.0;
        spec.user_max = 128;
        spec.decode_mean = 64.0;
        spec.decode_stddev = 32.0;
        spec.decode_max = 128;
        spec.min_turns = 2;
        spec.max_turns = 3;
        spec.think_time_mean = 0.5;
        trace = GenerateSessionTrace(spec, 14, 8.0, rng);
    } else {
        WorkloadSpec spec;
        spec.prefill_mean = 900.0;
        spec.prefill_stddev = 500.0;
        spec.prefill_min = 32;
        spec.prefill_max = 1400;
        spec.decode_mean = 150.0;
        spec.decode_stddev = 100.0;
        spec.decode_min = 4;
        spec.decode_max = 500;
        trace = GenerateTrace(spec, 30, 20.0, rng);
    }
    std::sort(trace.begin(), trace.end(), ArrivalOrder);
    return trace;
}

void
ExpectDecisionsEqual(const SchedulingDecision& a, const SchedulingDecision& b)
{
    ASSERT_EQ(a.admissions.size(), b.admissions.size());
    for (size_t i = 0; i < a.admissions.size(); ++i) {
        EXPECT_EQ(a.admissions[i].req_index, b.admissions[i].req_index);
        EXPECT_EQ(a.admissions[i].cached_tokens,
                  b.admissions[i].cached_tokens);
    }
    auto same_transitions =
        [](const std::vector<SchedulingDecision::Transition>& x,
           const std::vector<SchedulingDecision::Transition>& y) {
            ASSERT_EQ(x.size(), y.size());
            for (size_t i = 0; i < x.size(); ++i) {
                EXPECT_EQ(x[i].req_index, y[i].req_index);
                EXPECT_EQ(x[i].mode, y[i].mode);
                EXPECT_EQ(x[i].blocks, y[i].blocks);
                EXPECT_EQ(x[i].cached_tokens, y[i].cached_tokens);
            }
        };
    same_transitions(a.restores, b.restores);
    same_transitions(a.preemptions, b.preemptions);
    ASSERT_EQ(a.batch.prefills.size(), b.batch.prefills.size());
    for (size_t i = 0; i < a.batch.prefills.size(); ++i) {
        EXPECT_EQ(a.batch.prefills[i].req_index, b.batch.prefills[i].req_index);
        EXPECT_EQ(a.batch.prefills[i].chunk_len, b.batch.prefills[i].chunk_len);
        EXPECT_EQ(a.batch.prefills[i].kv_len_after,
                  b.batch.prefills[i].kv_len_after);
    }
    EXPECT_EQ(a.batch.decodes, b.batch.decodes);
}

void
ExpectStatesEqual(const std::vector<RequestState>& a,
                  const std::vector<RequestState>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "request state " << i);
        EXPECT_EQ(a[i].phase, b[i].phase);
        EXPECT_EQ(a[i].prefilled, b[i].prefilled);
        EXPECT_EQ(a[i].decoded, b[i].decoded);
        EXPECT_EQ(a[i].recompute_extra, b[i].recompute_extra);
        EXPECT_EQ(a[i].preempt_count, b[i].preempt_count);
        EXPECT_EQ(a[i].first_token_time, b[i].first_token_time);
        EXPECT_EQ(a[i].last_token_time, b[i].last_token_time);
        EXPECT_EQ(a[i].finish_time, b[i].finish_time);
        EXPECT_EQ(a[i].tbt, b[i].tbt);
    }
}

void
ExpectStepsEqual(const StepResult& a, const StepResult& b)
{
    EXPECT_EQ(a.progressed, b.progressed);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.batch_tokens, b.batch_tokens);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.preempted, b.preempted);
    EXPECT_EQ(a.swap_time, b.swap_time);
    EXPECT_EQ(a.kv_utilization, b.kv_utilization);
}

void
ExpectSnapshotsEqual(const ReplicaSnapshot& a, const ReplicaSnapshot& b)
{
    EXPECT_EQ(a.now, b.now);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.waiting, b.waiting);
    EXPECT_EQ(a.running, b.running);
    EXPECT_EQ(a.preempted, b.preempted);
    EXPECT_EQ(a.outstanding, b.outstanding);
    EXPECT_EQ(a.prefill_tokens_pending, b.prefill_tokens_pending);
    EXPECT_EQ(a.decode_tokens_pending, b.decode_tokens_pending);
    EXPECT_EQ(a.kv_utilization, b.kv_utilization);
    EXPECT_EQ(a.kv_pressure, b.kv_pressure);
    EXPECT_EQ(a.kv_watermark_headroom, b.kv_watermark_headroom);
    EXPECT_EQ(a.kv_free_blocks, b.kv_free_blocks);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.preemptions_recompute, b.preemptions_recompute);
    EXPECT_EQ(a.preemptions_swap, b.preemptions_swap);
    EXPECT_EQ(a.swap_time_total, b.swap_time_total);
    EXPECT_EQ(a.attn_cache_hits, b.attn_cache_hits);
    EXPECT_EQ(a.attn_cache_misses, b.attn_cache_misses);
    EXPECT_EQ(a.prefill_tokens_processed, b.prefill_tokens_processed);
    EXPECT_EQ(a.decode_tokens_processed, b.decode_tokens_processed);
    EXPECT_EQ(a.prefix_hits, b.prefix_hits);
    EXPECT_EQ(a.prefix_misses, b.prefix_misses);
    EXPECT_EQ(a.prefix_hit_blocks, b.prefix_hit_blocks);
    EXPECT_EQ(a.prefix_evicted_blocks, b.prefix_evicted_blocks);
    EXPECT_EQ(a.prefix_cached_blocks, b.prefix_cached_blocks);
    EXPECT_EQ(a.prefix_tokens_saved, b.prefix_tokens_saved);
}

/** Every field of two reports, samples in order, bit for bit. */
void
ExpectReportsEqual(const MetricsReport& a, const MetricsReport& b)
{
    cluster::test::ExpectMetricsEqual(a, b, "report");
    EXPECT_EQ(a.system, b.system);
    EXPECT_EQ(a.sim_fastpath_events, b.sim_fastpath_events);
    EXPECT_EQ(a.sim_fallback_events, b.sim_fallback_events);
    EXPECT_EQ(a.prefill_tokens_processed, b.prefill_tokens_processed);
    EXPECT_EQ(a.decode_tokens_processed, b.decode_tokens_processed);
    EXPECT_EQ(a.prefix_hits, b.prefix_hits);
    EXPECT_EQ(a.prefix_misses, b.prefix_misses);
    EXPECT_EQ(a.prefix_hit_blocks, b.prefix_hit_blocks);
    EXPECT_EQ(a.prefix_evicted_blocks, b.prefix_evicted_blocks);
    EXPECT_EQ(a.prefix_cached_blocks, b.prefix_cached_blocks);
    EXPECT_EQ(a.prefix_shared_blocks, b.prefix_shared_blocks);
    EXPECT_EQ(a.prefix_tokens_saved, b.prefix_tokens_saved);
}

/** How often the matrix reached each edge path of the index. */
struct Canaries
{
    /** Steps whose decodes filled max_num_seqs. */
    long cap_hits = 0;

    /**
     * Steps that certainly evicted from the back of the decoding set:
     * two or more preemptions (at most one can be the walk's front
     * request), or any preemption in a step that filled
     * max_num_seqs (a front request evicting itself ends the walk
     * below the cap).
     */
    long back_victim_steps = 0;

    /** Steps that preempted yet scheduled no decode: the first
     * candidate was never scheduled, so it evicted itself. */
    long self_preemptions = 0;

    long swap_restores = 0;

    /** Admissions and restores served partly from the prefix cache. */
    long prefix_hits = 0;
};

void
Tally(const SchedulingDecision& d, int max_num_seqs, Canaries& canaries)
{
    const bool capped =
        static_cast<int>(d.batch.decodes.size()) == max_num_seqs;
    if (capped) ++canaries.cap_hits;
    if (d.preemptions.size() >= 2 || (!d.preemptions.empty() && capped)) {
        ++canaries.back_victim_steps;
    }
    if (!d.preemptions.empty() && d.batch.decodes.empty()) {
        ++canaries.self_preemptions;
    }
    for (const auto& t : d.restores) {
        if (t.mode == PreemptMode::kSwap) ++canaries.swap_restores;
        if (t.cached_tokens > 0) ++canaries.prefix_hits;
    }
    for (const auto& a : d.admissions) {
        if (a.cached_tokens > 0) ++canaries.prefix_hits;
    }
}

/**
 * Step a reference-scheduled and an index-scheduled engine in
 * lockstep over one seeded trace, stopping at the first divergence.
 */
void
RunLockstep(const Case& c, uint64_t seed, Canaries& canaries)
{
    SCOPED_TRACE(Describe(c) + " seed " + std::to_string(seed));
    const ServingConfig config = MakeConfig(c);
    auto reference = std::make_unique<RecordingScheduler>(MakeReference(c));
    auto indexed = std::make_unique<RecordingScheduler>(MakeIndexed(c));
    const RecordingScheduler& ref = *reference;
    const RecordingScheduler& idx = *indexed;
    ServingEngine a(config, std::move(reference));
    ServingEngine b(config, std::move(indexed));
    for (const Request& r : MakeTrace(c.sessions, seed)) {
        a.Submit(r);
        b.Submit(r);
    }
    for (long step = 0; !a.Done(); ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        ASSERT_FALSE(b.Done());
        const StepResult ra = a.Step();
        const StepResult rb = b.Step();
        ExpectStepsEqual(ra, rb);
        ExpectDecisionsEqual(ref.last, idx.last);
        ExpectSnapshotsEqual(a.Snapshot(), b.Snapshot());
        ExpectStatesEqual(a.States(), b.States());
        if (::testing::Test::HasFailure()) return;
        Tally(ref.last, c.max_num_seqs, canaries);
    }
    EXPECT_TRUE(b.Done());
    ExpectReportsEqual(a.Report(), b.Report());
}

Canaries
RunMatrix(bool sarathi, bool sessions)
{
    Canaries canaries;
    for (const Case& c : Matrix(sarathi, sessions)) {
        for (uint64_t seed : {11u, 12u}) {
            RunLockstep(c, seed, canaries);
            if (::testing::Test::HasFailure()) return canaries;
        }
    }
    return canaries;
}

// ---- differential matrix ----

TEST(SchedulerIndexTest, SarathiMatchesScanOnPlainTraces)
{
    Canaries canaries = RunMatrix(true, false);
    EXPECT_GT(canaries.cap_hits, 0);
    EXPECT_GT(canaries.back_victim_steps, 0);
    EXPECT_GT(canaries.self_preemptions, 0);
    EXPECT_GT(canaries.swap_restores, 0);
}

TEST(SchedulerIndexTest, SarathiMatchesScanOnSessionTraces)
{
    Canaries canaries = RunMatrix(true, true);
    EXPECT_GT(canaries.cap_hits, 0);
    EXPECT_GT(canaries.back_victim_steps, 0);
    EXPECT_GT(canaries.swap_restores, 0);
    EXPECT_GT(canaries.prefix_hits, 0);
}

// vLLM schedules decodes only once no admitted prompt is left to
// prefill, so its lone front decoder always fits (CheckFits) and never
// evicts itself: no self-preemption canary there.
TEST(SchedulerIndexTest, VllmMatchesScanOnPlainTraces)
{
    Canaries canaries = RunMatrix(false, false);
    EXPECT_GT(canaries.cap_hits, 0);
    EXPECT_GT(canaries.back_victim_steps, 0);
    EXPECT_GT(canaries.swap_restores, 0);
}

TEST(SchedulerIndexTest, VllmMatchesScanOnSessionTraces)
{
    Canaries canaries = RunMatrix(false, true);
    EXPECT_GT(canaries.cap_hits, 0);
    EXPECT_GT(canaries.back_victim_steps, 0);
    EXPECT_GT(canaries.swap_restores, 0);
    EXPECT_GT(canaries.prefix_hits, 0);
}

// ---- rebuild path ----

/** Watermark + recompute on the plain trace: preempts mid-run. */
const Case kPreempting{true, KvPolicy::kWatermark, PreemptMode::kRecompute,
                       false, 4, false};

TEST(SchedulerIndexRebuildTest, RunTwiceMatchesFreshEngine)
{
    for (bool sarathi : {true, false}) {
        Case c = kPreempting;
        c.sarathi = sarathi;
        SCOPED_TRACE(Describe(c));
        const auto trace = MakeTrace(false, 11);
        ServingEngine reused(MakeConfig(c), MakeIndexed(c));
        const MetricsReport first = reused.Run(trace);
        EXPECT_GT(first.preemptions, 0);
        ServingEngine fresh(MakeConfig(c), MakeIndexed(c));
        ExpectReportsEqual(fresh.Run(trace), reused.Run(trace));
    }
}

TEST(SchedulerIndexRebuildTest, ResetMidDrainMatchesFreshEngine)
{
    for (bool sarathi : {true, false}) {
        Case c = kPreempting;
        c.sarathi = sarathi;
        SCOPED_TRACE(Describe(c));
        const auto trace = MakeTrace(false, 12);
        ServingEngine reused(MakeConfig(c), MakeIndexed(c));
        for (const Request& r : trace) reused.Submit(r);
        // Abandon the run with admitted, preempted and decoding work
        // in flight.
        while (reused.Snapshot().preemptions_recompute == 0) {
            ASSERT_FALSE(reused.Done());
            reused.Step();
        }
        ASSERT_GT(reused.Snapshot().running, 0);
        reused.Reset();
        for (const Request& r : trace) reused.Submit(r);
        while (!reused.Done()) reused.Step();
        ServingEngine fresh(MakeConfig(c), MakeIndexed(c));
        ExpectReportsEqual(fresh.Run(trace), reused.Report());
    }
}

TEST(SchedulerIndexRebuildTest, PassThroughDecoratorGivesIdenticalReports)
{
    for (bool sarathi : {true, false}) {
        Case c = kPreempting;
        c.sarathi = sarathi;
        SCOPED_TRACE(Describe(c));
        const auto trace = MakeTrace(false, 13);
        ServingEngine plain(MakeConfig(c), MakeIndexed(c));
        ServingEngine decorated(
            MakeConfig(c),
            std::make_unique<RecordingScheduler>(MakeIndexed(c)));
        ExpectReportsEqual(plain.Run(trace), decorated.Run(trace));
    }
}

/**
 * Single-shot Next() on the indexed and the reference scheduler over
 * two copies of hand-edited request states; between calls the test
 * edits both copies identically, as serve_test.cc's scheduler tests do.
 */
class SingleShotPair
{
  public:
    explicit SingleShotPair(std::vector<RequestState> states)
        : ref_states(states), idx_states(std::move(states))
    {
    }

    SchedulingDecision
    Next(double now)
    {
        SchedulingDecision want = reference_.Next(now, ref_states, ref_kv, 0);
        SchedulingDecision got = indexed_.Next(now, idx_states, idx_kv, 0);
        ExpectDecisionsEqual(want, got);
        ExpectStatesEqual(ref_states, idx_states);
        EXPECT_EQ(ref_kv.FreeBlocks(), idx_kv.FreeBlocks());
        return got;
    }

    /** Apply one edit to both copies. */
    template <typename Edit>
    void
    Both(Edit edit)
    {
        edit(ref_states, ref_kv);
        edit(idx_states, idx_kv);
    }

    std::vector<RequestState> ref_states;
    std::vector<RequestState> idx_states;
    WatermarkKvAllocator ref_kv{200, 16, 0.0, PreemptMode::kRecompute};
    WatermarkKvAllocator idx_kv{200, 16, 0.0, PreemptMode::kRecompute};

  private:
    ReferenceScheduler reference_{true, 64, 256};
    SarathiScheduler indexed_{64, 256};
};

TEST(SchedulerIndexRebuildTest, SingleShotSeesHandMadePhaseEdits)
{
    std::vector<RequestState> states(4);
    for (int i = 0; i < 4; ++i) {
        states[i].request = Request{i, 0.0, 100, 20, {}, -1, 0};
    }
    // A queued request already carrying progress, as serve_test.cc's
    // Sarathi tests set up: admission files it straight under decode.
    states[3].prefilled = 100;
    states[3].decoded = 5;
    SingleShotPair pair(states);

    SchedulingDecision d = pair.Next(0.0);
    ASSERT_EQ(d.admissions.size(), 4u);
    EXPECT_EQ(d.batch.decodes, std::vector<int>{3});

    // Engine-style progress the scheduler did not see: requests 0 and
    // 1 finish their prompts.
    pair.Both([](std::vector<RequestState>& s, KvAllocator&) {
        for (int i : {0, 1}) {
            s[i].prefilled = 100;
            s[i].decoded = 1;
        }
    });
    d = pair.Next(1.0);
    EXPECT_EQ(d.batch.decodes, (std::vector<int>{0, 1, 3}));

    // A test-made eviction: request 1 enters a preempted phase.
    pair.Both([](std::vector<RequestState>& s, KvAllocator& kv) {
        kv.Evict(s[1], PreemptMode::kRecompute);
        s[1].phase = Phase::kPreemptedRecompute;
        s[1].recompute_extra = s[1].decoded;
        s[1].prefilled = 0;
    });
    d = pair.Next(2.0);
    ASSERT_EQ(d.restores.size(), 1u);
    EXPECT_EQ(d.restores[0].req_index, 1);

    // A request appended between calls.
    pair.Both([](std::vector<RequestState>& s, KvAllocator&) {
        s.push_back(RequestState{});
        s.back().request = Request{4, 2.5, 50, 10, {}, -1, 0};
    });
    d = pair.Next(3.0);
    ASSERT_EQ(d.admissions.size(), 1u);
    EXPECT_EQ(d.admissions[0].req_index, 4);
}

}  // namespace
}  // namespace pod::serve
