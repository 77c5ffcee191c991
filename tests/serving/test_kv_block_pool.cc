/**
 * @file
 * Tests for the paged KV block pool and the hit-aware LFU codebook
 * residency cache.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "serving/kv_block_pool.h"

namespace vqllm::serving {
namespace {

KvBlockPoolConfig
smallPool(std::uint64_t blocks, std::size_t block_tokens = 4,
          std::uint64_t bytes_per_token = 8)
{
    KvBlockPoolConfig cfg;
    cfg.block_tokens = block_tokens;
    cfg.bytes_per_token = bytes_per_token;
    cfg.capacity_bytes = blocks * block_tokens * bytes_per_token;
    return cfg;
}

TEST(KvBlockPool, CapacityDerivesFromBytes)
{
    KvBlockPool pool(smallPool(10));
    EXPECT_EQ(pool.totalBlocks(), 10u);
    EXPECT_EQ(pool.freeBlocks(), 10u);
    EXPECT_EQ(pool.blockBytes(), 32u);
}

TEST(KvBlockPool, AllocRoundsUpToBlocks)
{
    KvBlockPool pool(smallPool(10));
    ASSERT_TRUE(pool.allocSequence(1, 5)); // 5 tokens -> 2 blocks of 4
    EXPECT_EQ(pool.seqBlocks(1), 2u);
    EXPECT_EQ(pool.seqTokens(1), 5u);
    EXPECT_EQ(pool.usedBlocks(), 2u);
}

TEST(KvBlockPool, AllocFailsAtomicallyWhenFull)
{
    KvBlockPool pool(smallPool(4));
    ASSERT_TRUE(pool.allocSequence(1, 12)); // 3 blocks
    EXPECT_FALSE(pool.allocSequence(2, 8)); // needs 2, only 1 free
    EXPECT_EQ(pool.usedBlocks(), 3u);
    EXPECT_EQ(pool.seqBlocks(2), 0u);
    EXPECT_EQ(pool.stats().failed_allocs, 1u);
    // The single remaining block still serves a small sequence.
    EXPECT_TRUE(pool.allocSequence(3, 4));
}

TEST(KvBlockPool, AppendTakesBlockOnlyAtBoundary)
{
    KvBlockPool pool(smallPool(4));
    ASSERT_TRUE(pool.allocSequence(1, 3));
    EXPECT_EQ(pool.seqBlocks(1), 1u);
    EXPECT_TRUE(pool.appendToken(1)); // token 4 fills the block
    EXPECT_EQ(pool.seqBlocks(1), 1u);
    EXPECT_TRUE(pool.appendToken(1)); // token 5 crosses the boundary
    EXPECT_EQ(pool.seqBlocks(1), 2u);
    EXPECT_EQ(pool.seqTokens(1), 5u);
}

TEST(KvBlockPool, AppendFailureLeavesSequenceIntact)
{
    KvBlockPool pool(smallPool(2));
    ASSERT_TRUE(pool.allocSequence(1, 8)); // both blocks
    EXPECT_FALSE(pool.appendToken(1));     // preemption signal
    EXPECT_EQ(pool.seqTokens(1), 8u);
    EXPECT_EQ(pool.seqBlocks(1), 2u);
}

TEST(KvBlockPool, ExtendTakesMultipleBlocksAtomically)
{
    KvBlockPool pool(smallPool(4));
    ASSERT_TRUE(pool.allocSequence(1, 3)); // 1 block, 1 slot slack
    EXPECT_EQ(pool.extendableTokens(1), 13u);
    ASSERT_TRUE(pool.extendSequence(1, 7)); // 10 tokens -> 3 blocks
    EXPECT_EQ(pool.seqBlocks(1), 3u);
    EXPECT_EQ(pool.seqTokens(1), 10u);
    // An extension that cannot be fully served changes nothing.
    EXPECT_FALSE(pool.extendSequence(1, 7)); // needs 2 blocks, 1 free
    EXPECT_EQ(pool.seqTokens(1), 10u);
    EXPECT_EQ(pool.usedBlocks(), 3u);
    EXPECT_EQ(pool.extendableTokens(1), 6u); // 2 slack + 1 free block
}

TEST(KvBlockPool, FreeReturnsBlocks)
{
    KvBlockPool pool(smallPool(4));
    ASSERT_TRUE(pool.allocSequence(1, 8));
    ASSERT_TRUE(pool.allocSequence(2, 8));
    pool.freeSequence(1);
    EXPECT_EQ(pool.freeBlocks(), 2u);
    EXPECT_EQ(pool.seqBlocks(1), 0u);
    // Freed blocks are reusable by a new sequence.
    EXPECT_TRUE(pool.allocSequence(3, 8));
    EXPECT_EQ(pool.stats().block_frees, 2u);
}

TEST(KvBlockPool, PeakTracksHighWaterMark)
{
    KvBlockPool pool(smallPool(8));
    ASSERT_TRUE(pool.allocSequence(1, 16)); // 4 blocks
    ASSERT_TRUE(pool.allocSequence(2, 8));  // 2 blocks -> peak 6
    pool.freeSequence(1);
    ASSERT_TRUE(pool.allocSequence(3, 4)); // used 3 < peak
    EXPECT_EQ(pool.stats().peak_used_blocks, 6u);
    EXPECT_EQ(pool.peakBytes(), 6u * pool.blockBytes());
}

TEST(KvBlockPool, InternalFragmentationIsTailSlack)
{
    KvBlockPool pool(smallPool(10));
    EXPECT_DOUBLE_EQ(pool.internalFragmentation(), 0.0);
    ASSERT_TRUE(pool.allocSequence(1, 5)); // 2 blocks, 8 slots, 5 used
    EXPECT_NEAR(pool.internalFragmentation(), 3.0 / 8.0, 1e-12);
    ASSERT_TRUE(pool.appendToken(1)); // 6 of 8
    EXPECT_NEAR(pool.internalFragmentation(), 2.0 / 8.0, 1e-12);
}

TEST(KvBlockPool, CanEverFitAgainstTotalCapacity)
{
    KvBlockPool pool(smallPool(4));
    EXPECT_TRUE(pool.canEverFit(16));
    EXPECT_FALSE(pool.canEverFit(17));
}

// ---- Block sharing (prefix cache substrate) -------------------------

TEST(KvBlockPool, AttachSharesBlocksWithoutConsumingFreeOnes)
{
    KvBlockPool pool(smallPool(8));
    ASSERT_TRUE(pool.allocSequence(1, 8)); // 2 full blocks
    auto blocks = pool.seqBlockIds(1);
    pool.attachSequence(2, blocks, 8);
    EXPECT_EQ(pool.usedBlocks(), 2u); // shared, counted once
    EXPECT_EQ(pool.freeBlocks(), 6u);
    EXPECT_EQ(pool.seqTokens(2), 8u);
    EXPECT_EQ(pool.sharedBlocks(), 2u);
    EXPECT_EQ(pool.blockRefs(blocks[0]), 2u);
    // Pool-level stored tokens count the shared run once; the
    // per-sequence views each see all 8.
    EXPECT_EQ(pool.storedTokens(), 8u);
    pool.freeSequence(1);
    EXPECT_EQ(pool.usedBlocks(), 2u); // still referenced by seq 2
    EXPECT_EQ(pool.sharedBlocks(), 0u);
    pool.freeSequence(2);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    EXPECT_EQ(pool.storedTokens(), 0u);
}

TEST(KvBlockPool, ExtendForksSharedPartialTail)
{
    KvBlockPool pool(smallPool(8));
    ASSERT_TRUE(pool.allocSequence(1, 6)); // 1 full + 1 half block
    auto blocks = pool.seqBlockIds(1);
    pool.attachSequence(2, blocks, 6);
    // Seq 2 writes into the shared tail's slack: the tail must fork
    // (one fresh block), leaving seq 1's view untouched.
    ASSERT_TRUE(pool.extendSequence(2, 1));
    EXPECT_EQ(pool.stats().cow_forks, 1u);
    EXPECT_EQ(pool.seqTokens(1), 6u);
    EXPECT_EQ(pool.seqTokens(2), 7u);
    EXPECT_NE(pool.seqBlockIds(2)[1], blocks[1]);
    EXPECT_EQ(pool.seqBlockIds(2)[0], blocks[0]); // full block stays shared
    EXPECT_EQ(pool.blockRefs(blocks[1]), 1u);     // tail privatized back
    EXPECT_EQ(pool.usedBlocks(), 3u);
    // 4 shared + 2 (seq1 tail) + 3 (seq2 forked tail) stored once each.
    EXPECT_EQ(pool.storedTokens(), 4u + 2u + 3u);
}

TEST(KvBlockPool, ExtendableTokensChargesTheCowFork)
{
    KvBlockPool pool(smallPool(3));
    ASSERT_TRUE(pool.allocSequence(1, 6)); // 2 blocks, 2 slack
    pool.attachSequence(2, pool.seqBlockIds(1), 6);
    // 1 free block, shared tail: the fork consumes it, so seq 2 can
    // only gain the forked tail's slack plus nothing further.
    EXPECT_EQ(pool.extendableTokens(2), 2u);
    ASSERT_TRUE(pool.extendSequence(2, 2));
    EXPECT_EQ(pool.extendableTokens(2), 0u);
    EXPECT_FALSE(pool.appendToken(2));
    // The fork dropped seq 2's reference on seq 1's tail, so seq 1's
    // slack is writable again even with zero free blocks.
    EXPECT_EQ(pool.extendableTokens(1), 2u);
}

TEST(KvBlockPool, CacheBlocksAndRefsRoundTrip)
{
    KvBlockPool pool(smallPool(4));
    BlockId b = 0;
    ASSERT_TRUE(pool.allocCacheBlock(3, &b));
    EXPECT_EQ(pool.blockRefs(b), 1u);
    EXPECT_EQ(pool.storedTokens(), 3u);
    pool.addBlockRef(b);
    EXPECT_EQ(pool.blockRefs(b), 2u);
    pool.releaseBlockRef(b);
    pool.releaseBlockRef(b);
    EXPECT_EQ(pool.blockRefs(b), 0u);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    EXPECT_EQ(pool.storedTokens(), 0u);
    // Cache allocation never consults the reclaimer and fails plainly
    // at capacity.
    ASSERT_TRUE(pool.allocSequence(1, 16));
    BlockId c = 0;
    EXPECT_FALSE(pool.allocCacheBlock(1, &c));
}

TEST(KvBlockPool, ReclaimerFoldsIntoCapacityAndRescuesAllocs)
{
    KvBlockPool pool(smallPool(4));
    // A stand-in prefix cache holding two cache-owned blocks.
    std::vector<BlockId> hoard;
    for (int i = 0; i < 2; ++i) {
        BlockId b = 0;
        ASSERT_TRUE(pool.allocCacheBlock(4, &b));
        hoard.push_back(b);
    }
    pool.setReclaimer(
        [&](std::uint64_t need) {
            while (need-- > 0 && !hoard.empty()) {
                pool.releaseBlockRef(hoard.back());
                hoard.pop_back();
            }
        },
        [&] { return static_cast<std::uint64_t>(hoard.size()); });
    // Capacity queries see through the hoard...
    EXPECT_EQ(pool.freeBlocks(), 2u);
    EXPECT_EQ(pool.availableBlocks(), 4u);
    EXPECT_EQ(pool.freeTokens(), 16u);
    // ...and an allocation needing reclaimed blocks succeeds.
    EXPECT_TRUE(pool.allocSequence(1, 16));
    EXPECT_TRUE(hoard.empty());
    EXPECT_EQ(pool.stats().failed_allocs, 0u);
}

// ---------------------------------------------------------------------

TEST(CodebookResidency, HitsAfterAdmission)
{
    CodebookResidency cache(2);
    auto r1 = cache.touchBatch({1, 2});
    EXPECT_EQ(r1.misses, 2u);
    EXPECT_EQ(r1.hits, 0u);
    auto r2 = cache.touchBatch({1, 2});
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r2.misses, 0u);
    EXPECT_TRUE(cache.resident(1));
    EXPECT_TRUE(cache.resident(2));
}

TEST(CodebookResidency, DuplicatesInBatchCountOnce)
{
    CodebookResidency cache(2);
    auto r = cache.touchBatch({7, 7, 7});
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.hits, 0u);
}

TEST(CodebookResidency, LfuEvictsColdestGroup)
{
    CodebookResidency cache(2);
    cache.touchBatch({1});
    cache.touchBatch({1}); // freq(1)=2
    cache.touchBatch({2}); // freq(2)=1
    auto r = cache.touchBatch({3});
    EXPECT_EQ(r.evictions, 1u);
    EXPECT_TRUE(cache.resident(1));  // hot survivor
    EXPECT_FALSE(cache.resident(2)); // LFU victim
    EXPECT_TRUE(cache.resident(3));
}

TEST(CodebookResidency, BatchMembersPinnedAgainstEachOther)
{
    CodebookResidency cache(2);
    cache.touchBatch({1, 2});
    // 1 and 2 are resident with freq 1.  A batch containing 1 and a new
    // group must evict 2 (unpinned), never 1 (hit-aware masking).
    auto r = cache.touchBatch({1, 3});
    EXPECT_EQ(r.hits, 1u);
    EXPECT_EQ(r.misses, 1u);
    EXPECT_TRUE(cache.resident(1));
    EXPECT_TRUE(cache.resident(3));
    EXPECT_FALSE(cache.resident(2));
}

TEST(CodebookResidency, OverflowBatchKeepsMissingWithoutThrashing)
{
    CodebookResidency cache(2);
    // 3 distinct groups, 2 slots: the overflow group stays non-resident
    // and the resident pair must not evict each other.
    auto r1 = cache.touchBatch({1, 2, 3});
    EXPECT_EQ(r1.misses, 3u);
    EXPECT_EQ(cache.size(), 2u);
    auto r2 = cache.touchBatch({1, 2, 3});
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r2.misses, 1u);
    EXPECT_EQ(r2.evictions, 0u);
}

TEST(CodebookResidency, OverflowCounterSeparatesCapacityFromColdMisses)
{
    CodebookResidency cache(2);
    // 4 distinct groups, 2 slots: two admissions are cold misses, the
    // other two are capacity overflow (every slot pinned by the batch).
    auto r1 = cache.touchBatch({1, 2, 3, 4});
    EXPECT_EQ(r1.misses, 4u);
    EXPECT_EQ(r1.overflow, 2u);
    EXPECT_EQ(r1.evictions, 0u);

    // The same batch again: the resident pair hits, the overflow pair
    // is charged a miss *and* flagged as overflow every iteration —
    // capacity thrash, not cold starts.
    auto r2 = cache.touchBatch({1, 2, 3, 4});
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r2.misses, 2u);
    EXPECT_EQ(r2.overflow, 2u);
    EXPECT_EQ(cache.stats().overflow, 4u);

    // A batch that fits evicts normally: no overflow recorded.
    auto r3 = cache.touchBatch({5, 6});
    EXPECT_EQ(r3.overflow, 0u);
    EXPECT_EQ(r3.evictions, 2u);
    EXPECT_EQ(cache.stats().overflow, 4u);
}

TEST(CodebookResidency, StatsAccumulateAcrossBatches)
{
    CodebookResidency cache(4);
    cache.touchBatch({1, 2});
    cache.touchBatch({1, 3});
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_NEAR(cache.stats().hitRate(), 0.25, 1e-12);
}

/**
 * CodebookResidency::touchBatch as it was before pins became batch
 * stamps: a pinned flag set on the batch's residents before any
 * admission and cleared on every resident after the batch.
 */
class ClearingPassResidency
{
  public:
    explicit ClearingPassResidency(std::size_t slots) : slots_(slots) {}

    CodebookResidency::BatchResult
    touchBatch(const std::vector<std::uint64_t> &groups)
    {
        CodebookResidency::BatchResult out;
        std::vector<std::uint64_t> unique = groups;
        std::sort(unique.begin(), unique.end());
        unique.erase(std::unique(unique.begin(), unique.end()),
                     unique.end());
        for (std::uint64_t g : unique) {
            auto it = resident_.find(g);
            if (it != resident_.end())
                it->second.pinned = true;
        }
        for (std::uint64_t g : unique) {
            auto it = resident_.find(g);
            if (it != resident_.end()) {
                ++it->second.freq;
                ++out.hits;
                continue;
            }
            ++out.misses;
            if (resident_.size() >= slots_) {
                auto victim = resident_.end();
                for (auto cand = resident_.begin();
                     cand != resident_.end(); ++cand) {
                    if (cand->second.pinned)
                        continue;
                    if (victim == resident_.end() ||
                        cand->second.freq < victim->second.freq ||
                        (cand->second.freq == victim->second.freq &&
                         cand->first < victim->first))
                        victim = cand;
                }
                if (victim == resident_.end()) {
                    ++out.overflow;
                    continue;
                }
                resident_.erase(victim);
                ++out.evictions;
            }
            resident_.emplace(g, Slot{1, true});
        }
        for (auto &[g, slot] : resident_)
            slot.pinned = false;
        stats_.hits += out.hits;
        stats_.misses += out.misses;
        stats_.evictions += out.evictions;
        stats_.overflow += out.overflow;
        return out;
    }

    bool resident(std::uint64_t g) const { return resident_.count(g) > 0; }
    std::size_t size() const { return resident_.size(); }
    const CodebookResidencyStats &stats() const { return stats_; }

  private:
    struct Slot
    {
        std::uint64_t freq = 0;
        bool pinned = false;
    };

    std::size_t slots_;
    std::unordered_map<std::uint64_t, Slot> resident_;
    CodebookResidencyStats stats_;
};

TEST(CodebookResidency, RandomBatchesMatchClearingPassReference)
{
    constexpr std::size_t kSlots = 6;
    constexpr std::uint64_t kGroups = 16;
    std::uint64_t evictions = 0, overflow = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        CodebookResidency cache(kSlots);
        ClearingPassResidency ref(kSlots);
        for (int b = 0; b < 300; ++b) {
            // Mostly batches that fit, with duplicates; one in five
            // draws up to 2x the slots, so distinct groups can
            // outnumber the slots (overflow).
            const std::size_t len =
                1 + rng.uniformInt(rng.uniformInt(5) == 0 ? 2 * kSlots
                                                          : kSlots);
            std::vector<std::uint64_t> batch;
            for (std::size_t k = 0; k < len; ++k)
                batch.push_back(rng.uniformInt(kGroups));
            const auto got = cache.touchBatch(batch);
            const auto want = ref.touchBatch(batch);
            ASSERT_EQ(got.hits, want.hits) << "batch " << b;
            ASSERT_EQ(got.misses, want.misses) << "batch " << b;
            ASSERT_EQ(got.evictions, want.evictions) << "batch " << b;
            ASSERT_EQ(got.overflow, want.overflow) << "batch " << b;
            ASSERT_EQ(cache.stats().hits, ref.stats().hits);
            ASSERT_EQ(cache.stats().misses, ref.stats().misses);
            ASSERT_EQ(cache.stats().evictions, ref.stats().evictions);
            ASSERT_EQ(cache.stats().overflow, ref.stats().overflow);
            ASSERT_EQ(cache.size(), ref.size());
            for (std::uint64_t g = 0; g < kGroups; ++g)
                ASSERT_EQ(cache.resident(g), ref.resident(g))
                    << "batch " << b << " group " << g;
        }
        evictions += cache.stats().evictions;
        overflow += cache.stats().overflow;
    }
    // The batches reach both capacity paths.
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(overflow, 0u);
}

} // namespace
} // namespace vqllm::serving
