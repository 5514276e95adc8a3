/**
 * @file
 * Iteration-level batch schedulers (paper S2.1, Fig. 2).
 *
 * The engine asks the scheduler for the next batch each iteration.
 * Two policies from the paper:
 *
 *  - VllmScheduler: the original vLLM prefill-prioritizing policy.
 *    Whenever prompts wait, it runs a prefill-only iteration over
 *    whole prompts, pausing all decodes (low TTFT, generation stalls
 *    -> high tail TBT).
 *  - SarathiScheduler: chunked prefills + stall-free hybrid batching.
 *    Every iteration carries all running decodes plus prefill chunks
 *    filling the remaining token budget (bounded TBT, higher TTFT).
 *
 * Next() returns a SchedulingDecision: the batch to execute plus the
 * request-lifecycle transitions the scheduler performed against the
 * KvAllocator while forming it — admissions, preempted-request
 * restores, and ordered preemptions. The scheduler mutates only
 * phases and the allocator; the engine applies the progress, counter
 * and timing consequences (docs/DESIGN.md S2).
 */
#ifndef POD_SERVE_SCHEDULER_H
#define POD_SERVE_SCHEDULER_H

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/kv_allocator.h"
#include "serve/request.h"

namespace pod::serve {

/** The batch chosen for one iteration. */
struct ScheduledBatch
{
    /** One prefill chunk of a request. */
    struct PrefillChunk
    {
        /** Index into the engine's request-state array. */
        int req_index = 0;

        /** Tokens of the prompt processed this iteration. */
        int chunk_len = 0;

        /** KV length after this chunk (context the chunk attends). */
        int kv_len_after = 0;
    };

    std::vector<PrefillChunk> prefills;

    /** Request-state indices decoding this iteration. */
    std::vector<int> decodes;

    bool Empty() const { return prefills.empty() && decodes.empty(); }

    /** Total new tokens in this batch. */
    int
    TotalTokens() const
    {
        int tokens = static_cast<int>(decodes.size());
        for (const auto& p : prefills) tokens += p.chunk_len;
        return tokens;
    }
};

/**
 * One scheduler iteration's output: the batch plus every lifecycle
 * transition performed while forming it.
 */
struct SchedulingDecision
{
    /** A request moving between the running set and a preempted /
     * queued phase. `blocks` is the on-device block count moved
     * (the swap transfer size when mode == kSwap). */
    struct Transition
    {
        int req_index = 0;
        PreemptMode mode = PreemptMode::kRecompute;
        long blocks = 0;

        /** Prompt tokens the re-admission served from a prefix cache
         * (already credited to state.prefilled; 0 on preemptions and
         * under cacheless policies). */
        int cached_tokens = 0;
    };

    /** A request entering the running set for the first time. */
    struct Admission
    {
        int req_index = 0;

        /** Prompt tokens served from a prefix cache (already
         * credited to state.prefilled; 0 under cacheless policies). */
        int cached_tokens = 0;
    };

    ScheduledBatch batch;

    /** Queued -> Running, in admission (FCFS) order. */
    std::vector<Admission> admissions;

    /** Preempted* -> Running, in restore order. */
    std::vector<Transition> restores;

    /** Running -> Preempted*, in eviction order. */
    std::vector<Transition> preemptions;
};

/**
 * Index of the admitted and preempted requests by sub-phase, owned by
 * one scheduler and kept in step with the request phases so a
 * scheduling pass touches only the requests it schedules, restores or
 * evicts — O(scheduled) rather than O(admitted) per iteration
 * (docs/DESIGN.md S8).
 *
 * Three index-sorted lists of request-state indices:
 *  - preempted: Preempted* phases, awaiting re-admission;
 *  - prefilling: Running with the prefill target not yet reached;
 *  - decoding: Running, prefill done, output tokens pending.
 *
 * The scheduler moves entries at its own transitions (admission,
 * restore, preemption). The engine's transitions — a prefill chunk
 * completing a prompt, a request finishing — only ever touch the
 * requests of the previous batch, which are a prefix of prefilling
 * and a prefix of decoding, so Sync() folds them in by re-reading
 * just those prefixes.
 */
class SubPhaseIndex
{
  public:
    /**
     * Bring the index up to date with `requests`. Rebuilds from the
     * request phases over [active_begin, min(admitted_end, size))
     * whenever `admitted_end` differs from the value the last
     * Commit() recorded (a reset request vector, or a single-shot
     * caller), otherwise folds in the previous batch's engine-side
     * transitions.
     */
    void Sync(const std::vector<RequestState>& requests,
              size_t active_begin, size_t admitted_end);

    /**
     * Admission and re-admission, FCFS with head-of-line blocking:
     * preempted requests and queued arrivals are tried in index
     * (= arrival) order, stopping at the first one the allocator
     * rejects or the first queued request that has not arrived.
     * Raises `admitted_end` past every admitted index and clamps it
     * to requests.size().
     */
    void PlanAdmissions(double now, std::vector<RequestState>& requests,
                        KvAllocator& kv, size_t& admitted_end,
                        SchedulingDecision& decision);

    /**
     * Schedule decodes front to back up to `max_num_seqs`, growing
     * each reservation by one token and evicting from the back of the
     * decoding set when the pool cannot grow (see scheduler.cc).
     */
    void ScheduleDecodes(std::vector<RequestState>& requests,
                         KvAllocator& kv, int max_num_seqs,
                         SchedulingDecision& decision);

    /** Requests awaiting prefill, in index order. A batch's prefill
     * chunks must be a prefix of this list. */
    const std::vector<int>& Prefilling() const { return prefilling_; }

    /** Record the returned watermark and the batch the engine will
     * apply; call once at the end of every Next(). */
    void Commit(const SchedulingDecision& decision, size_t admitted_end);

  private:
    void Rebuild(const std::vector<RequestState>& requests,
                 size_t active_begin, size_t admitted_end);

    /** File a Running request under prefilling or decoding. */
    void Place(const RequestState& state, int req_index);

    void Preempt(std::vector<RequestState>& requests, int req_index,
                 KvAllocator& kv, SchedulingDecision& decision);

    std::vector<int> preempted_;
    std::vector<int> prefilling_;
    std::vector<int> decoding_;

    /** No request below this index is queued (admission cursor). */
    size_t queued_begin_ = 0;

    /** Watermark the last Commit() returned; 0 matches the empty
     * index of a fresh request vector. */
    size_t committed_end_ = 0;

    /** Prefill chunks / decodes of the last committed batch. */
    size_t last_prefills_ = 0;
    size_t last_decodes_ = 0;
};

/** Scheduler interface. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Choose the next batch and perform admission / restore /
     * eviction against the allocator.
     *
     * Contract on an empty batch: returning an empty batch tells the
     * engine nothing is runnable, so it must coincide with an empty
     * decision (no admissions, restores or preemptions) and no
     * request may be left in a preempted phase — the engine responds
     * by jumping the clock to the next queued arrival and asserts
     * these invariants. Both in-tree schedulers satisfy this
     * structurally (an admitted or restored request always
     * contributes prefill or decode work to the batch).
     *
     * The in-tree schedulers keep a SubPhaseIndex across calls, so
     * between two calls the caller may change request states only by
     * applying the returned decision (preemption bookkeeping, prefill
     * and decode progress, finishing) and by appending queued
     * requests; anything else needs a rebuild (a changed
     * `admitted_end`, or the single-shot overload).
     *
     * @param now current time (requests with arrival_time > now are
     *        invisible).
     * @param requests all request states (the scheduler moves
     *        phases; the engine applies everything else).
     * @param kv allocation policy for admission control, incremental
     *        growth and eviction.
     * @param active_begin first index that may be unfinished: every
     *        request before it has finished. Read only when the
     *        scheduler rebuilds its index, which then scans
     *        [active_begin, admitted_end). Pass 0 to scan everything
     *        (no default: default arguments on virtuals bind by static
     *        type and would silently pin overrides to the base value).
     * @param admitted_end in/out watermark one past the highest index
     *        ever admitted. Admission is strictly FCFS, so every
     *        admitted (running or preempted) request sits below it
     *        and every request at or past it is queued. The scheduler
     *        raises it as it admits and clamps it to requests.size().
     *        The caller owns the value across iterations, passes back
     *        exactly what the previous call returned, and resets it
     *        to 0 with its request vector; any other value (such as
     *        the single-shot overload's) makes the scheduler rebuild
     *        its index from the request phases below it.
     */
    virtual SchedulingDecision Next(double now,
                                    std::vector<RequestState>& requests,
                                    KvAllocator& kv, size_t active_begin,
                                    size_t& admitted_end) = 0;

    /**
     * Single-shot convenience (tests, exploratory callers): passes an
     * unknown watermark (past the end of any vector), so the
     * scheduler rebuilds from the request phases on every call and
     * sees any edit the caller made to them since the last one.
     */
    SchedulingDecision
    Next(double now, std::vector<RequestState>& requests, KvAllocator& kv,
         size_t active_begin)
    {
        size_t admitted_end = std::numeric_limits<size_t>::max();
        return Next(now, requests, kv, active_begin, admitted_end);
    }

    /** Policy name for reports. */
    virtual std::string Name() const = 0;
};

/** Original vLLM scheduler (prefill-prioritizing, no chunking). */
class VllmScheduler : public Scheduler
{
  public:
    /**
     * @param max_batched_tokens cap on prefill tokens per iteration.
     * @param max_num_seqs cap on sequences per batch.
     */
    explicit VllmScheduler(int max_batched_tokens = 16384,
                           int max_num_seqs = 256);

    using Scheduler::Next;
    SchedulingDecision Next(double now,
                            std::vector<RequestState>& requests,
                            KvAllocator& kv, size_t active_begin,
                            size_t& admitted_end) override;

    std::string Name() const override { return "vLLM"; }

  private:
    int max_batched_tokens_;
    int max_num_seqs_;
    SubPhaseIndex index_;
};

/** Sarathi-Serve scheduler (chunked prefills, hybrid batching). */
class SarathiScheduler : public Scheduler
{
  public:
    /**
     * @param token_budget per-iteration token budget; decodes count
     *        one token each, prefill chunks fill the remainder
     *        (the paper's "chunk size").
     * @param max_num_seqs cap on sequences per batch.
     */
    explicit SarathiScheduler(int token_budget = 512,
                              int max_num_seqs = 256);

    using Scheduler::Next;
    SchedulingDecision Next(double now,
                            std::vector<RequestState>& requests,
                            KvAllocator& kv, size_t active_begin,
                            size_t& admitted_end) override;

    std::string Name() const override { return "Sarathi"; }

  private:
    int token_budget_;
    int max_num_seqs_;
    SubPhaseIndex index_;
};

}  // namespace pod::serve

#endif  // POD_SERVE_SCHEDULER_H
