/**
 * @file
 * Direct unit tests for the raw KV block ledger, including the edge
 * cases hardened while the allocator interface was split out of it:
 * negative token counts (CeilDiv would silently round them to a
 * zero-block reservation), long-overflowing pool capacities,
 * double-free, and zero-capacity pools.
 */
#include "serve/kv_manager.h"

#include <gtest/gtest.h>

#include <climits>
#include <limits>

namespace pod::serve {
namespace {

TEST(BlockKvManagerTest, ReserveAndFree)
{
    BlockKvManager kv(10, 16);
    EXPECT_EQ(kv.BlocksFor(1), 1);
    EXPECT_EQ(kv.BlocksFor(16), 1);
    EXPECT_EQ(kv.BlocksFor(17), 2);
    EXPECT_TRUE(kv.ReserveBlocks(1, kv.BlocksFor(100)));  // 7 blocks
    EXPECT_EQ(kv.UsedBlocks(), 7);
    EXPECT_FALSE(kv.ReserveBlocks(2, kv.BlocksFor(64)));  // 4 > 3 free
    EXPECT_EQ(kv.Held(2), 0);  // a failed reserve leaves no entry
    EXPECT_TRUE(kv.ReserveBlocks(2, kv.BlocksFor(48)));  // exactly 3
    EXPECT_EQ(kv.FreeBlocks(), 0);
    EXPECT_EQ(kv.Free(1), 7);
    EXPECT_EQ(kv.UsedBlocks(), 3);
    EXPECT_NEAR(kv.Utilization(), 0.3, 1e-12);
}

TEST(BlockKvManagerTest, BlocksForBoundaries)
{
    BlockKvManager kv(10, 16);
    EXPECT_EQ(kv.BlocksFor(0), 0);
    // INT_MAX tokens must not overflow the long block count.
    BlockKvManager one_token_blocks(10, 1);
    EXPECT_EQ(one_token_blocks.BlocksFor(INT_MAX),
              static_cast<long>(INT_MAX));
}

TEST(BlockKvManagerTest, ZeroTokenReservationIsTracked)
{
    // A zero-token reservation holds zero blocks but still owns an
    // entry: Free() works exactly once, like any other request.
    BlockKvManager kv(10, 16);
    EXPECT_TRUE(kv.ReserveBlocks(7, kv.BlocksFor(0)));
    EXPECT_EQ(kv.Held(7), 0);
    EXPECT_EQ(kv.UsedBlocks(), 0);
    EXPECT_EQ(kv.Free(7), 0);
}

TEST(BlockKvManagerTest, GrowAndHeld)
{
    BlockKvManager kv(10, 16);
    EXPECT_EQ(kv.Held(1), 0);  // no reservation yet
    ASSERT_TRUE(kv.ReserveBlocks(1, kv.BlocksFor(32)));  // 2 blocks
    EXPECT_EQ(kv.Held(1), 2);
    EXPECT_TRUE(kv.Grow(1, 3));
    EXPECT_EQ(kv.Held(1), 5);
    EXPECT_EQ(kv.UsedBlocks(), 5);
    EXPECT_FALSE(kv.Grow(1, 6));  // only 5 free
    EXPECT_EQ(kv.Held(1), 5);    // failed growth changes nothing
    EXPECT_EQ(kv.Free(1), 5);
}

TEST(BlockKvManagerTest, ReserveBlocksExactFootprint)
{
    BlockKvManager kv(10, 16);
    EXPECT_TRUE(kv.ReserveBlocks(3, 10));
    EXPECT_FALSE(kv.ReserveBlocks(4, 1));  // pool exhausted
    EXPECT_EQ(kv.Free(3), 10);
    EXPECT_TRUE(kv.ReserveBlocks(4, 1));
}

TEST(BlockKvManagerDeathTest, DoubleReserve)
{
    BlockKvManager kv(10, 16);
    ASSERT_TRUE(kv.ReserveBlocks(1, 1));
    EXPECT_EXIT(kv.ReserveBlocks(1, 1), ::testing::ExitedWithCode(1),
                "already holds a reservation");
}

TEST(BlockKvManagerDeathTest, DoubleFree)
{
    BlockKvManager kv(10, 16);
    ASSERT_TRUE(kv.ReserveBlocks(1, 1));
    kv.Free(1);
    EXPECT_EXIT(kv.Free(1), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(BlockKvManagerDeathTest, FreeWithoutReserve)
{
    BlockKvManager kv(10, 16);
    EXPECT_EXIT(kv.Free(42), ::testing::ExitedWithCode(1), "FATAL");
}

TEST(BlockKvManagerDeathTest, ZeroCapacityPool)
{
    EXPECT_EXIT(BlockKvManager(0, 16), ::testing::ExitedWithCode(1),
                "FATAL");
}

TEST(BlockKvManagerDeathTest, NegativeTokenCount)
{
    BlockKvManager kv(10, 16);
    EXPECT_EXIT(kv.BlocksFor(-1), ::testing::ExitedWithCode(1), "FATAL");
    EXPECT_EXIT(kv.ReserveBlocks(1, -2), ::testing::ExitedWithCode(1),
                "block count must be >= 0");
}

TEST(BlockKvManagerDeathTest, TokenCapacityOverflow)
{
    // total_blocks * block_size must fit in a long.
    EXPECT_EXIT(
        BlockKvManager(std::numeric_limits<long>::max() / 2, 16),
        ::testing::ExitedWithCode(1), "FATAL");
}

TEST(BlockKvManagerDeathTest, GrowWithoutReservation)
{
    BlockKvManager kv(10, 16);
    EXPECT_EXIT(kv.Grow(5, 1), ::testing::ExitedWithCode(1), "FATAL");
}

// ---- shared account (prefix cache; docs/DESIGN.md S2.6) ----

TEST(BlockKvManagerSharedTest, ReserveAndReleaseShared)
{
    // Blocks enter the shared account only through a request's
    // private reservation.
    BlockKvManager kv(10, 16);
    ASSERT_TRUE(kv.ReserveBlocks(1, 4));
    kv.TransferToShared(1, 4);
    EXPECT_EQ(kv.SharedBlocks(), 4);
    EXPECT_EQ(kv.UsedBlocks(), 4);  // shared counts as used
    EXPECT_EQ(kv.Free(1), 0);       // ...and outlives its donor
    EXPECT_EQ(kv.SharedBlocks(), 4);
    EXPECT_FALSE(kv.ReserveBlocks(2, 7));  // only 6 free
    EXPECT_EQ(kv.SharedBlocks(), 4);       // failed reserve is a no-op
    kv.ReleaseShared(3);
    EXPECT_EQ(kv.SharedBlocks(), 1);
    EXPECT_EQ(kv.FreeBlocks(), 9);
    kv.CheckLedger();
}

TEST(BlockKvManagerSharedTest, TransferRelabelsPrivateAsShared)
{
    BlockKvManager kv(10, 16);
    ASSERT_TRUE(kv.ReserveBlocks(1, 6));
    kv.TransferToShared(1, 4);
    EXPECT_EQ(kv.Held(1), 2);
    EXPECT_EQ(kv.SharedBlocks(), 4);
    EXPECT_EQ(kv.UsedBlocks(), 6);  // a relabel, not an allocation
    kv.CheckLedger();

    // A request fully promoted still owns its (empty) entry: Free()
    // works exactly once and frees its remaining private blocks.
    kv.TransferToShared(1, 2);
    EXPECT_EQ(kv.Held(1), 0);
    EXPECT_EQ(kv.Free(1), 0);
    EXPECT_EQ(kv.SharedBlocks(), 6);
    kv.CheckLedger();
}

TEST(BlockKvManagerSharedTest, ShrinkDropsDuplicatePrivateBlocks)
{
    BlockKvManager kv(10, 16);
    ASSERT_TRUE(kv.ReserveBlocks(1, 6));
    kv.Shrink(1, 4);
    EXPECT_EQ(kv.Held(1), 2);
    EXPECT_EQ(kv.FreeBlocks(), 8);
    EXPECT_EQ(kv.SharedBlocks(), 0);  // shrink frees, never shares
    kv.CheckLedger();
}

TEST(BlockKvManagerSharedDeathTest, SharedOverflowAndDoubleFree)
{
    BlockKvManager kv(10, 16);
    ASSERT_TRUE(kv.ReserveBlocks(1, 4));
    kv.TransferToShared(1, 4);
    // Releasing more than the account holds is a double-free.
    EXPECT_EXIT(kv.ReleaseShared(5), ::testing::ExitedWithCode(1),
                "shared account holds fewer blocks than released");
    // Transferring more than the request holds is an overflow.
    ASSERT_TRUE(kv.ReserveBlocks(2, 2));
    EXPECT_EXIT(kv.TransferToShared(2, 3), ::testing::ExitedWithCode(1),
                "request holds fewer blocks than transferred");
    EXPECT_EXIT(kv.Shrink(2, 3), ::testing::ExitedWithCode(1), "FATAL");
    // Transfers from a request that never reserved are fatal too.
    EXPECT_EXIT(kv.TransferToShared(9, 1), ::testing::ExitedWithCode(1),
                "FATAL");
}

}  // namespace
}  // namespace pod::serve
