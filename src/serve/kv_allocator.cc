/**
 * @file
 * Implementation of the KV allocator.
 */
#include "serve/kv_allocator.h"

#include <algorithm>

#include "common/logging.h"
#include "serve/prefix/block_hash.h"

namespace pod::serve {

namespace {

/** Validate the watermark under every policy, then keep it only
 * where the policy reads it. */
double
AdmissionWatermark(KvPolicy policy, double watermark)
{
    POD_CHECK_ARG(watermark >= 0.0 && watermark < 1.0,
                  "kv_watermark must be in [0, 1)");
    return policy == KvPolicy::kWatermark ? watermark : 0.0;
}

}  // namespace

KvAllocator::KvAllocator(KvPolicy policy, long total_blocks, int block_size,
                         double watermark, PreemptMode preempt_mode,
                         bool prefix_cache_enabled)
    : policy_(policy),
      watermark_(AdmissionWatermark(policy, watermark)),
      preempt_mode_(policy == KvPolicy::kWatermark ? preempt_mode
                                                   : PreemptMode::kRecompute),
      watermark_blocks_(static_cast<long>(watermark_ * total_blocks)),
      pool_(total_blocks, block_size)
{
    if (!prefix_cache_enabled) return;
    // Swap would park shared blocks on the host while other live
    // requests still reference them on-device (see the file comment
    // in kv_allocator.h).
    POD_CHECK_ARG(policy == KvPolicy::kConservative ||
                      preempt_mode == PreemptMode::kRecompute,
                  "prefix caching requires recompute preemption");
    cache_ = std::make_unique<prefix::PrefixCache>();
}

const std::vector<uint64_t>&
KvAllocator::HashesFor(const RequestState& state)
{
    auto it = hashes_.find(state.request.id);
    if (it == hashes_.end()) {
        it = hashes_
                 .emplace(state.request.id,
                          prefix::BlockHashes(state.request,
                                              pool_.BlockSize()))
                 .first;
    }
    return it->second;
}

bool
KvAllocator::TryAdmit(const RequestState& state)
{
    const int id = state.request.id;
    const bool swap_in = state.phase == Phase::kPreemptedSwapped;
    long needed;
    if (swap_in) {
        // Swap-in restores the exact evicted footprint.
        auto it = swapped_out_.find(id);
        POD_ASSERT(it != swapped_out_.end());
        needed = it->second;
    } else {
        // A conservative reservation covers the full context up front,
        // so that policy never evicts and only admits fresh
        // submissions. The watermark policy reserves the prompt (plus
        // any generated tokens a recompute rebuilds); decode growth
        // comes later through Append().
        POD_ASSERT(policy_ == KvPolicy::kWatermark ||
                   state.phase == Phase::kQueued);
        needed = pool_.BlocksFor(
            policy_ == KvPolicy::kConservative
                ? state.request.prefill_tokens + state.request.decode_tokens
                : state.PrefillTarget());
    }

    const std::vector<uint64_t>* hashes = nullptr;
    long matched = 0;
    if (cache_) {
        // The cache rejects swap preemption, so no swap-in gets here.
        POD_ASSERT(!swap_in);
        last_admit_cached_tokens_ = 0;
        hashes = &HashesFor(state);
        // Never serve the entire prefill from cache: at least one
        // prompt token must actually run so first-token timing stays
        // defined (vLLM clamps a full hit the same way).
        long max_match =
            hashes->empty()
                ? 0
                : std::min<long>(
                      static_cast<long>(hashes->size()),
                      static_cast<long>((state.PrefillTarget() - 1) /
                                        pool_.BlockSize()));
        matched =
            max_match > 0 ? cache_->MatchBlocks(*hashes, max_match) : 0;
        needed -= matched;
        POD_ASSERT(needed >= 1);  // the clamp leaves >= 1 private block
    }

    // vLLM's watermark rule: admit only if the pool stays above the
    // watermark afterwards, so short bursts of decode growth do not
    // immediately preempt what was just admitted.
    if (pool_.FreeBlocks() - needed < watermark_blocks_) {
        if (!cache_) return false;
        // Under the admission gate: reclaim dead cache blocks before
        // giving up. Reference the matched chain first so the LRU
        // sweep cannot eat the very prefix this admission hit.
        long deficit = watermark_blocks_ + needed - pool_.FreeBlocks();
        if (matched > 0) cache_->Acquire(id, *hashes, matched);
        pool_.ReleaseShared(cache_->EvictLru(deficit));
        if (pool_.FreeBlocks() - needed < watermark_blocks_) {
            if (matched > 0) cache_->Release(id, *hashes);
            return false;
        }
    } else if (matched > 0) {
        cache_->Acquire(id, *hashes, matched);
    }

    bool ok = pool_.ReserveBlocks(id, needed);
    POD_ASSERT(ok);  // the gate check implies it fits
    if (swap_in) swapped_out_.erase(id);
    if (!cache_) return true;

    shared_cover_[id] = matched;
    last_admit_cached_tokens_ =
        static_cast<int>(matched) * pool_.BlockSize();
    if (!hashes->empty()) {
        prefix::PrefixCacheStats& s = cache_->Stats();
        if (matched > 0) {
            ++s.hits;
            s.hit_blocks += matched;
            s.prefill_tokens_saved += last_admit_cached_tokens_;
        } else {
            ++s.misses;
        }
    }
    return true;
}

long
KvAllocator::AppendNeed(const RequestState& state) const
{
    long need = pool_.BlocksFor(state.ContextLen() + 1) -
                pool_.Held(state.request.id);
    if (cache_) {
        auto it = shared_cover_.find(state.request.id);
        if (it != shared_cover_.end()) need -= it->second;
    }
    return need;
}

bool
KvAllocator::CanAppend(const RequestState& state) const
{
    // The conservative admission reservation covers every token.
    if (policy_ == KvPolicy::kConservative) return true;
    long need = AppendNeed(state);
    if (need <= 0) return true;
    // Dead cache subtrees count as headroom: Append() reclaims them
    // before growing, so a block parked at refcount 0 never forces a
    // preemption.
    long evictable = cache_ ? cache_->EvictableBlocks() : 0;
    return pool_.FreeBlocks() + evictable >= need;
}

void
KvAllocator::Append(const RequestState& state)
{
    if (policy_ == KvPolicy::kConservative) return;
    long need = AppendNeed(state);
    if (need <= 0) return;
    if (cache_ && pool_.FreeBlocks() < need) {
        pool_.ReleaseShared(cache_->EvictLru(need - pool_.FreeBlocks()));
    }
    bool ok = pool_.Grow(state.request.id, need);
    POD_ASSERT_MSG(ok, "Append() without CanAppend() on request %d",
                   state.request.id);
}

long
KvAllocator::Evict(const RequestState& state, PreemptMode mode)
{
    if (policy_ == KvPolicy::kConservative) {
        Panic("a conservative KvAllocator can never need an eviction");
    }
    const int id = state.request.id;
    long blocks = pool_.Free(id);
    if (cache_) {
        POD_CHECK_ARG(mode == PreemptMode::kRecompute,
                      "prefix caching only supports recompute preemption");
        auto it = hashes_.find(id);
        if (it != hashes_.end()) cache_->Release(id, it->second);
        shared_cover_.erase(id);
        // hashes_ survives: a recompute re-admission re-matches the
        // same chain without recomputing it.
    }
    if (mode == PreemptMode::kSwap) swapped_out_[id] = blocks;
    return blocks;
}

void
KvAllocator::Release(int request_id)
{
    pool_.Free(request_id);
    if (!cache_) return;
    auto it = hashes_.find(request_id);
    if (it != hashes_.end()) {
        cache_->Release(request_id, it->second);
        hashes_.erase(it);
    }
    shared_cover_.erase(request_id);
}

void
KvAllocator::CheckFits(const RequestState& state) const
{
    // The worst-case on-device footprint is the full context (prompt
    // + all output tokens), all of it private; if that cannot coexist
    // with the admission watermark even in an empty pool, the request
    // would starve the scheduler forever. Cached blocks never tighten
    // the bound: any block not referenced by this request alone is
    // evictable once every other holder is preempted.
    POD_CHECK_ARG(pool_.BlocksFor(state.request.prefill_tokens +
                                  state.request.decode_tokens) +
                          watermark_blocks_ <=
                      pool_.TotalBlocks(),
                  "request larger than the KV pool minus the "
                  "admission watermark");
}

void
KvAllocator::OnPrefillComplete(const RequestState& state)
{
    if (!cache_) return;
    const int id = state.request.id;
    auto it = hashes_.find(id);
    if (it == hashes_.end() || it->second.empty()) return;
    const std::vector<uint64_t>& hashes = it->second;

    // Promote the prompt's blocks: newly cached runs move from the
    // request's private account into the shared account; runs some
    // earlier request already cached are duplicates, and dropping
    // the private copies is exactly the copy-on-write win. Both fit
    // inside the admission reservation because the hash chain only
    // covers full prompt blocks. Idempotent across a recompute
    // re-prefill: prior coverage keeps its references and only the
    // evicted-meanwhile remainder is re-promoted.
    prefix::PrefixCache::InsertResult result =
        cache_->InsertAndRef(id, hashes);
    if (result.new_blocks > 0) pool_.TransferToShared(id, result.new_blocks);
    if (result.dedup_blocks > 0) pool_.Shrink(id, result.dedup_blocks);
    shared_cover_[id] = static_cast<long>(hashes.size());
}

const prefix::PrefixCache&
KvAllocator::Cache() const
{
    POD_CHECK_ARG(cache_ != nullptr, "the prefix cache is disabled");
    return *cache_;
}

long
KvAllocator::SwappedBlocks(int request_id) const
{
    auto it = swapped_out_.find(request_id);
    return it != swapped_out_.end() ? it->second : 0;
}

void
KvAllocator::AuditLedger() const
{
    pool_.CheckLedger();
    for (const auto& [id, blocks] : swapped_out_) {
        POD_ASSERT(blocks >= 0 && pool_.Held(id) == 0);
    }
    if (!cache_) {
        POD_ASSERT(pool_.SharedBlocks() == 0 && shared_cover_.empty());
        return;
    }
    cache_->CheckIntegrity();
    POD_ASSERT(cache_->TotalBlocks() == pool_.SharedBlocks());
    for (const auto& [id, cover] : shared_cover_) {
        POD_ASSERT(cache_->RefBlocks(id) == cover);
    }
}

std::string
KvAllocator::Name() const
{
    std::string name =
        policy_ == KvPolicy::kConservative ? "conservative" : "watermark";
    return cache_ ? name + "+prefix" : name;
}

}  // namespace pod::serve
