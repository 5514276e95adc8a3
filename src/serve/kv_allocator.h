/**
 * @file
 * The serving engine's KV-cache allocator (docs/DESIGN.md S2).
 *
 * KvAllocator owns the admission/growth/eviction *policy* over a raw
 * block ledger (serve/kv_manager.h). The KvPolicy sets two things:
 *
 *  - the admission reservation. kConservative (default) reserves the
 *    full prompt plus maximum output up front, so growth never
 *    allocates and preemption can never be needed; kWatermark (vLLM)
 *    reserves the prompt only (PrefillTarget()) and grows one block
 *    at a time as decode tokens materialize (CanAppend/Append), and
 *    under pressure the scheduler evicts victims (Evict), which
 *    either re-prefill their context (recompute) or park their
 *    blocks in host memory and pay PCIe transfer time both ways
 *    (swap);
 *  - the admission watermark: the fraction of the pool that must
 *    stay free after an admission. It is validated under both
 *    policies and forced to 0 under kConservative.
 *
 * With the prefix cache on (docs/DESIGN.md S2.6) admission first
 * matches the request's chained block hashes against a radix tree of
 * cached prompt blocks and reserves private blocks only for the
 * unmatched remainder, so a hit converts prefill work into
 * decode-shaped work (the paper's fig15 P:D shift). When a prompt's
 * prefill completes its full blocks migrate into the pool's shared
 * account and the tree; runs an earlier request already cached are
 * dropped as duplicates. Under pool pressure — admission gate or
 * decode growth — refcount-0 cache subtrees are LRU-evicted before
 * any running request is preempted.
 *
 * The cache supports only recompute preemption under kWatermark:
 * swap would park a victim's *shared* blocks on the host while other
 * live requests still reference them on-device, splitting one
 * block's identity in two; recompute simply drops the references
 * (the nodes stay cached at refcount 0, so re-admission usually
 * re-matches and the recompute is cheap). The scheduler's
 * frontmost-decoder guarantee survives: after evicting every other
 * decoder, all cached blocks not referenced by the frontmost request
 * have refcount 0, so free + evictable >= CheckFits' worst-case
 * footprint.
 *
 * Only the allocator constructs a BlockKvManager; every other layer
 * talks to this class.
 */
#ifndef POD_SERVE_KV_ALLOCATOR_H
#define POD_SERVE_KV_ALLOCATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/kv_manager.h"
#include "serve/prefix/prefix_cache.h"
#include "serve/request.h"

namespace pod::serve {

/** How an evicted request's KV is recovered on re-admission. */
enum class PreemptMode {
    kRecompute,  ///< Drop the KV; re-run prefill over the context.
    kSwap,       ///< Park blocks in host memory; PCIe both ways.
};

/** Allocation policy selector (ServingConfig::kv_policy). */
enum class KvPolicy {
    kConservative,  ///< Whole-request up-front reservation (default).
    kWatermark,     ///< vLLM watermark admission + preemption.
};

/** Paged KV-pool allocator: admission, growth, eviction, prefix reuse. */
class KvAllocator
{
  public:
    /**
     * @param watermark fraction of the pool that must stay free after
     *        an admission (vLLM's `watermark`); must be in [0, 1)
     *        under either policy, and is forced to 0 under
     *        kConservative.
     * @param preempt_mode how the scheduler evicts victims
     *        (kWatermark only; kConservative never preempts).
     * @param prefix_cache_enabled turn on the radix prefix cache;
     *        requires kRecompute under kWatermark.
     */
    KvAllocator(KvPolicy policy, long total_blocks, int block_size,
                double watermark, PreemptMode preempt_mode,
                bool prefix_cache_enabled);

    /**
     * Try to move a request into the running set, reserving the
     * blocks the policy requires up front. Handles all admissible
     * phases: kQueued (fresh or recompute-restored context) and
     * kPreemptedSwapped / kPreemptedRecompute (re-admission).
     * @return true and the reservation is made; false leaves the
     *         pool untouched.
     */
    bool TryAdmit(const RequestState& state);

    /**
     * Can the running request grow by the one token the next
     * iteration materializes (context ContextLen() + 1)?
     */
    bool CanAppend(const RequestState& state) const;

    /**
     * Grow the running request's reservation for that token.
     * Call only after CanAppend() returned true this iteration.
     */
    void Append(const RequestState& state);

    /**
     * Evict a running request's blocks (preemption; kWatermark
     * only). In kSwap mode the footprint is remembered so
     * re-admission restores it exactly; in kRecompute mode it is
     * simply dropped.
     * @return blocks freed (the swap-out transfer size).
     */
    long Evict(const RequestState& state, PreemptMode mode);

    /** Release a finished request's blocks and cache references. */
    void Release(int request_id);

    /**
     * Prompt tokens the most recent successful TryAdmit() served
     * from the prefix cache (always 0 with the cache off). The
     * scheduler credits them as already-prefilled before building
     * the batch.
     */
    int LastAdmitCachedTokens() const { return last_admit_cached_tokens_; }

    /**
     * The request's prefill just completed (engine progress loop):
     * with the cache on, the prompt's full blocks enter the cache.
     */
    void OnPrefillComplete(const RequestState& state);

    /** Prefix-cache statistics, or nullptr with the cache off. */
    const prefix::PrefixCacheStats*
    PrefixStats() const
    {
        return cache_ ? &cache_->Stats() : nullptr;
    }

    /** The radix tree (tests, benches); fatal with the cache off. */
    const prefix::PrefixCache& Cache() const;

    /**
     * Fatal if the request could never be admitted even against an
     * empty pool: its full context plus the watermark exceeds the
     * pool (guards the scheduler against spinning forever on an
     * impossible request).
     */
    void CheckFits(const RequestState& state) const;

    /** Blocks parked in host memory for a swapped-out request. */
    long SwappedBlocks(int request_id) const;

    /**
     * Audit every cross-structure invariant: the pool ledger, no
     * swapped-out request holding device blocks and, with the cache
     * on, the tree's internal counters and the cache-vs-shared-
     * account lockstep (tree blocks == pool shared blocks,
     * per-request coverage == recorded shared cover). Fatal on
     * drift. O(requests + tree).
     */
    void AuditLedger() const;

    /** How the scheduler should evict victims. */
    PreemptMode preempt_mode() const { return preempt_mode_; }

    /** Admission watermark as a fraction of the pool (0 = none). */
    double WatermarkFraction() const { return watermark_; }

    /** Policy name for reports ("+prefix" with the cache on). */
    std::string Name() const;

    // ---- pool observers ----
    long BlocksFor(int tokens) const { return pool_.BlocksFor(tokens); }
    long TotalBlocks() const { return pool_.TotalBlocks(); }
    long UsedBlocks() const { return pool_.UsedBlocks(); }
    long FreeBlocks() const { return pool_.FreeBlocks(); }
    int BlockSize() const { return pool_.BlockSize(); }
    double Utilization() const { return pool_.Utilization(); }

    /** Blocks currently reserved on-device by a request. */
    long Held(int request_id) const { return pool_.Held(request_id); }

    /**
     * Free-pool headroom above the admission watermark, as a
     * fraction of the pool. Negative when decode growth has eaten
     * into the watermark reserve (growth is never watermark-gated;
     * only admission is).
     */
    double
    WatermarkHeadroom() const
    {
        return static_cast<double>(FreeBlocks()) / TotalBlocks() -
               WatermarkFraction();
    }

  private:
    /** Hash chain for a request, computed once and cached by id. */
    const std::vector<uint64_t>& HashesFor(const RequestState& state);

    /** Blocks the next materialized token needs beyond the private
     * and cache-covered blocks (kWatermark only). */
    long AppendNeed(const RequestState& state) const;

    KvPolicy policy_;
    double watermark_;
    PreemptMode preempt_mode_;
    long watermark_blocks_;
    BlockKvManager pool_;

    /** Host-side footprints of swapped-out requests. */
    std::unordered_map<int, long> swapped_out_;

    /** The radix prefix cache; null when the cache is off. */
    std::unique_ptr<prefix::PrefixCache> cache_;
    int last_admit_cached_tokens_ = 0;

    /** Hash chains of in-flight requests (admission .. release). */
    std::unordered_map<int, std::vector<uint64_t>> hashes_;

    /** Context blocks covered by cache references, per request. */
    std::unordered_map<int, long> shared_cover_;
};

}  // namespace pod::serve

#endif  // POD_SERVE_KV_ALLOCATOR_H
