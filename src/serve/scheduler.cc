/**
 * @file
 * Implementation of the vLLM and Sarathi-Serve schedulers and their
 * sub-phase index.
 */
#include "serve/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace pod::serve {

namespace {

/** Insert into an index-sorted list; O(1) when appending. */
void
InsertSorted(std::vector<int>& list, int req_index)
{
    if (list.empty() || list.back() < req_index) {
        list.push_back(req_index);
        return;
    }
    list.insert(std::lower_bound(list.begin(), list.end(), req_index),
                req_index);
}

/** First queued index at or after `i` (requests.size() if none). */
size_t
NextQueued(const std::vector<RequestState>& requests, size_t i)
{
    while (i < requests.size() && requests[i].phase != Phase::kQueued) ++i;
    return i;
}

}  // namespace

void
SubPhaseIndex::Sync(const std::vector<RequestState>& requests,
                    size_t active_begin, size_t admitted_end)
{
    if (admitted_end != committed_end_) {
        Rebuild(requests, active_begin, admitted_end);
        return;
    }
    // The last batch's decodes were decoding_[0, last_decodes_):
    // drop the ones that finished.
    size_t kept = 0;
    for (size_t r = 0; r < last_decodes_; ++r) {
        int i = decoding_[r];
        if (!requests[static_cast<size_t>(i)].Finished()) {
            decoding_[kept++] = i;
        }
    }
    decoding_.erase(decoding_.begin() + static_cast<long>(kept),
                    decoding_.begin() + static_cast<long>(last_decodes_));
    // Its prefill chunks were prefilling_[0, last_prefills_): a
    // completed prompt either finished with its first token or now
    // decodes.
    kept = 0;
    for (size_t r = 0; r < last_prefills_; ++r) {
        int i = prefilling_[r];
        const RequestState& state = requests[static_cast<size_t>(i)];
        if (!state.PrefillDone()) {
            prefilling_[kept++] = i;
        } else if (!state.Finished()) {
            InsertSorted(decoding_, i);
        }
    }
    prefilling_.erase(
        prefilling_.begin() + static_cast<long>(kept),
        prefilling_.begin() + static_cast<long>(last_prefills_));
    last_prefills_ = 0;
    last_decodes_ = 0;
}

void
SubPhaseIndex::Rebuild(const std::vector<RequestState>& requests,
                       size_t active_begin, size_t admitted_end)
{
    preempted_.clear();
    prefilling_.clear();
    decoding_.clear();
    last_prefills_ = 0;
    last_decodes_ = 0;
    const size_t end = std::min(admitted_end, requests.size());
    queued_begin_ = end;
    for (size_t i = active_begin; i < end; ++i) {
        const RequestState& state = requests[i];
        if (state.phase == Phase::kQueued) {
            queued_begin_ = std::min(queued_begin_, i);
        } else if (state.Preempted()) {
            preempted_.push_back(static_cast<int>(i));
        } else if (state.Admitted()) {
            Place(state, static_cast<int>(i));
        }
    }
}

void
SubPhaseIndex::Place(const RequestState& state, int req_index)
{
    if (!state.PrefillDone()) {
        InsertSorted(prefilling_, req_index);
    } else if (state.DecodePending()) {
        InsertSorted(decoding_, req_index);
    }
}

/**
 * Because admission is strictly FCFS, every ever-admitted (hence every
 * preempted) request precedes every never-admitted one, so the merged
 * walk restores preempted requests before admitting new arrivals —
 * vLLM's rule that waiting requests stay blocked while preempted work
 * exists. Admission stops at the first request the allocator rejects
 * (head-of-line blocking preserved, exactly the pre-redesign AdmitFcfs
 * behaviour under the conservative policy).
 */
void
SubPhaseIndex::PlanAdmissions(double now,
                              std::vector<RequestState>& requests,
                              KvAllocator& kv, size_t& admitted_end,
                              SchedulingDecision& decision)
{
    size_t restored = 0;
    size_t q = NextQueued(requests, queued_begin_);
    while (true) {
        if (restored < preempted_.size() &&
            static_cast<size_t>(preempted_[restored]) < q) {
            const int i = preempted_[restored];
            RequestState& state = requests[static_cast<size_t>(i)];
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
                i, mode, kv.Held(state.request.id), cached});
            Place(state, i);
            ++restored;
            continue;
        }
        if (q >= requests.size()) break;
        RequestState& state = requests[q];
        if (state.request.arrival_time > now) break;  // sorted by arrival
        kv.CheckFits(state);
        if (!kv.TryAdmit(state)) break;
        state.phase = Phase::kRunning;
        int cached = kv.LastAdmitCachedTokens();
        if (cached > 0) state.prefilled = cached;
        decision.admissions.push_back(SchedulingDecision::Admission{
            static_cast<int>(q), cached});
        Place(state, static_cast<int>(q));
        admitted_end = std::max(admitted_end, q + 1);
        q = NextQueued(requests, q + 1);
    }
    preempted_.erase(preempted_.begin(),
                     preempted_.begin() + static_cast<long>(restored));
    queued_begin_ = q;
    // FCFS invariant: everything at or past the watermark was never
    // admitted.
    admitted_end = std::min(admitted_end, requests.size());
}

/** Evict one running request and record the transition. */
void
SubPhaseIndex::Preempt(std::vector<RequestState>& requests, int req_index,
                       KvAllocator& kv, SchedulingDecision& decision)
{
    RequestState& state = requests[static_cast<size_t>(req_index)];
    PreemptMode mode = kv.preempt_mode();
    long blocks = kv.Evict(state, mode);
    state.phase = mode == PreemptMode::kSwap ? Phase::kPreemptedSwapped
                                             : Phase::kPreemptedRecompute;
    decision.preemptions.push_back(
        SchedulingDecision::Transition{req_index, mode, blocks});
    InsertSorted(preempted_, req_index);
}

/**
 * Growing each reservation covers the token this iteration
 * materializes. When the pool cannot grow, victims are evicted from
 * the back of the *decoding* set (latest arrival = lowest priority
 * among decoders, vLLM's preemption order). Admitted requests still
 * mid-prefill are deliberately exempt from victimhood: their prompt
 * blocks were reserved at admission, they allocate nothing per
 * iteration, and evicting half-processed prefills would burn strictly
 * more recompute work than evicting a decoder frees. The frontmost
 * decoder can always proceed because admission guaranteed its
 * worst-case footprint fits the pool (KvAllocator::CheckFits).
 */
void
SubPhaseIndex::ScheduleDecodes(std::vector<RequestState>& requests,
                               KvAllocator& kv, int max_num_seqs,
                               SchedulingDecision& decision)
{
    size_t lo = 0;
    size_t hi = decoding_.size();  // victims pop from the back of [lo, hi)
    size_t evicted_front = 0;
    while (lo < hi) {
        const int i = decoding_[lo];
        RequestState& state = requests[static_cast<size_t>(i)];
        bool fits = kv.CanAppend(state);
        while (!fits && hi - lo > 1) {
            --hi;
            Preempt(requests, decoding_[hi], kv, decision);
            fits = kv.CanAppend(state);
        }
        if (!fits) {
            // The last candidate evicts itself, which ends the walk.
            Preempt(requests, i, kv, decision);
            evicted_front = 1;
            ++lo;
            continue;
        }
        kv.Append(state);
        decision.batch.decodes.push_back(i);
        ++lo;
        if (static_cast<int>(decision.batch.decodes.size()) >=
            max_num_seqs) {
            break;
        }
    }
    // Every victim sat in decoding_[hi - evicted_front, end).
    decoding_.resize(hi - evicted_front);
}

void
SubPhaseIndex::Commit(const SchedulingDecision& decision,
                      size_t admitted_end)
{
    committed_end_ = admitted_end;
    last_prefills_ = decision.batch.prefills.size();
    last_decodes_ = decision.batch.decodes.size();
}

VllmScheduler::VllmScheduler(int max_batched_tokens, int max_num_seqs)
    : max_batched_tokens_(max_batched_tokens), max_num_seqs_(max_num_seqs)
{
    POD_CHECK_ARG(max_batched_tokens >= 1, "token cap must be >= 1");
    POD_CHECK_ARG(max_num_seqs >= 1, "sequence cap must be >= 1");
}

SchedulingDecision
VllmScheduler::Next(double now, std::vector<RequestState>& requests,
                    KvAllocator& kv, size_t active_begin,
                    size_t& admitted_end)
{
    SchedulingDecision decision;
    index_.Sync(requests, active_begin, admitted_end);
    index_.PlanAdmissions(now, requests, kv, admitted_end, decision);
    ScheduledBatch& batch = decision.batch;

    // Prefill-prioritizing: if any admitted prompt is unprocessed,
    // run a prefill-only iteration over whole prompts (no chunking).
    // Prompt blocks were reserved at admission, so prefill-only
    // iterations never grow the pool and never preempt.
    int tokens = 0;
    for (int i : index_.Prefilling()) {
        const RequestState& state = requests[static_cast<size_t>(i)];
        int remaining = state.PrefillTarget() - state.prefilled;
        if (!batch.prefills.empty() &&
            (tokens + remaining > max_batched_tokens_ ||
             static_cast<int>(batch.prefills.size()) >= max_num_seqs_)) {
            break;
        }
        batch.prefills.push_back(ScheduledBatch::PrefillChunk{
            i, remaining, state.PrefillTarget()});
        tokens += remaining;
    }
    // Decodes pause while prompts prefill: the generation stall
    // (Fig. 2a).
    if (batch.prefills.empty()) {
        index_.ScheduleDecodes(requests, kv, max_num_seqs_, decision);
    }
    index_.Commit(decision, admitted_end);
    return decision;
}

SarathiScheduler::SarathiScheduler(int token_budget, int max_num_seqs)
    : token_budget_(token_budget), max_num_seqs_(max_num_seqs)
{
    POD_CHECK_ARG(token_budget >= 1, "token budget must be >= 1");
    POD_CHECK_ARG(max_num_seqs >= 1, "sequence cap must be >= 1");
}

SchedulingDecision
SarathiScheduler::Next(double now, std::vector<RequestState>& requests,
                       KvAllocator& kv, size_t active_begin,
                       size_t& admitted_end)
{
    SchedulingDecision decision;
    index_.Sync(requests, active_begin, admitted_end);
    index_.PlanAdmissions(now, requests, kv, admitted_end, decision);
    ScheduledBatch& batch = decision.batch;

    // All running decodes join every iteration: stall-free batching.
    index_.ScheduleDecodes(requests, kv, max_num_seqs_, decision);

    // Prefill chunks fill the remaining token budget (paper S2.1).
    // Chunks draw on blocks reserved at admission, so they never
    // allocate — a decode-evicted victim cannot be re-hit here.
    int budget =
        std::max(0, token_budget_ - static_cast<int>(batch.decodes.size()));
    for (int i : index_.Prefilling()) {
        if (budget <= 0) break;
        const RequestState& state = requests[static_cast<size_t>(i)];
        int remaining = state.PrefillTarget() - state.prefilled;
        int chunk = std::min(budget, remaining);
        batch.prefills.push_back(ScheduledBatch::PrefillChunk{
            i, chunk, state.prefilled + chunk});
        budget -= chunk;
    }
    index_.Commit(decision, admitted_end);
    return decision;
}

}  // namespace pod::serve
