/**
 * @file
 * Implementation of KV block accounting.
 */
#include "serve/kv_manager.h"

#include <limits>

#include "common/logging.h"

namespace pod::serve {

BlockKvManager::BlockKvManager(long total_blocks, int block_size)
    : total_blocks_(total_blocks), block_size_(block_size)
{
    POD_CHECK_ARG(total_blocks > 0, "KV pool must be non-empty");
    POD_CHECK_ARG(block_size >= 1, "block size must be >= 1");
    // Guard the pool's token capacity against long overflow: callers
    // multiply total_blocks * block_size when sizing transfers and
    // pressure figures.
    POD_CHECK_ARG(total_blocks <=
                      std::numeric_limits<long>::max() / block_size,
                  "KV pool token capacity overflows long");
}

long
BlockKvManager::BlocksFor(int tokens) const
{
    // CeilDiv is only defined for non-negative operands; a negative
    // token count would silently round to a zero-block reservation.
    POD_CHECK_ARG(tokens >= 0, "token count must be >= 0");
    return CeilDiv(static_cast<long>(tokens),
                   static_cast<long>(block_size_));
}

bool
BlockKvManager::ReserveBlocks(int request_id, long blocks)
{
    POD_CHECK_ARG(blocks >= 0, "block count must be >= 0");
    POD_CHECK_ARG(reserved_.find(request_id) == reserved_.end(),
                  "request already holds a reservation");
    if (blocks > FreeBlocks()) return false;
    reserved_[request_id] = blocks;
    used_blocks_ += blocks;
    return true;
}

bool
BlockKvManager::Grow(int request_id, long extra_blocks)
{
    POD_CHECK_ARG(extra_blocks >= 0, "block count must be >= 0");
    auto it = reserved_.find(request_id);
    POD_CHECK_ARG(it != reserved_.end(), "request holds no reservation");
    if (extra_blocks > FreeBlocks()) return false;
    it->second += extra_blocks;
    used_blocks_ += extra_blocks;
    return true;
}

long
BlockKvManager::Held(int request_id) const
{
    auto it = reserved_.find(request_id);
    return it != reserved_.end() ? it->second : 0;
}

long
BlockKvManager::Free(int request_id)
{
    auto it = reserved_.find(request_id);
    POD_CHECK_ARG(it != reserved_.end(), "request holds no reservation");
    long blocks = it->second;
    used_blocks_ -= blocks;
    reserved_.erase(it);
    return blocks;
}

void
BlockKvManager::ReleaseShared(long blocks)
{
    POD_CHECK_ARG(blocks >= 0, "block count must be >= 0");
    POD_CHECK_ARG(blocks <= shared_blocks_,
                  "shared account holds fewer blocks than released");
    shared_blocks_ -= blocks;
    used_blocks_ -= blocks;
}

void
BlockKvManager::TransferToShared(int request_id, long blocks)
{
    POD_CHECK_ARG(blocks >= 0, "block count must be >= 0");
    auto it = reserved_.find(request_id);
    POD_CHECK_ARG(it != reserved_.end(), "request holds no reservation");
    POD_CHECK_ARG(blocks <= it->second,
                  "request holds fewer blocks than transferred");
    it->second -= blocks;
    shared_blocks_ += blocks;
    // used_blocks_ unchanged: the blocks only changed owner.
}

void
BlockKvManager::Shrink(int request_id, long blocks)
{
    POD_CHECK_ARG(blocks >= 0, "block count must be >= 0");
    auto it = reserved_.find(request_id);
    POD_CHECK_ARG(it != reserved_.end(), "request holds no reservation");
    POD_CHECK_ARG(blocks <= it->second,
                  "request holds fewer blocks than shrunk");
    it->second -= blocks;
    used_blocks_ -= blocks;
}

void
BlockKvManager::CheckLedger() const
{
    long held = 0;
    for (const auto& [id, blocks] : reserved_) {
        (void)id;
        POD_ASSERT(blocks >= 0);
        held += blocks;
    }
    POD_ASSERT(shared_blocks_ >= 0);
    POD_ASSERT(held + shared_blocks_ == used_blocks_);
    POD_ASSERT(used_blocks_ >= 0 && used_blocks_ <= total_blocks_);
}

}  // namespace pod::serve
