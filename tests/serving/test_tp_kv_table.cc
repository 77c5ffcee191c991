/**
 * @file
 * Equivalence of the one tensor-parallel KV block table with the
 * lockstep per-device pools it replaced.
 *
 * Under TP every device stores its KV-head share of every cached
 * token.  The simulator once kept one KvBlockPool per device and
 * replayed every op on each; it now keeps one table sized by device 0,
 * the widest share.  The reference below is that replay, kept
 * test-local: D pools sized per device (capacity per device, the
 * device's bytes per token), every op applied device by device, and
 * capacity queries taking the minimum over devices.  Seeded random op
 * sequences in the scheduler's protocol (alloc, extend, append, attach
 * of another sequence's blocks, free, cache-block alloc / reference /
 * release, reclaim under pressure) drive both, and after every op the
 * two must agree on success, per-sequence tokens and blocks, free and
 * extendable tokens, used blocks and per-device peak bytes, and no
 * device other than 0 may refuse an op device 0 accepted.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "llm/tensor_parallel.h"
#include "serving/kv_block_pool.h"

namespace vqllm::serving {
namespace {

constexpr std::size_t kBt = 4;

/** One TP group's geometry: KV heads split over `degree` devices. */
struct TpCase
{
    std::size_t degree;
    std::size_t kv_heads;
    /** KV bytes of one full token (all heads, all layers). */
    std::uint64_t total_bpt;
    std::uint64_t capacity_per_device;
};

void
PrintTo(const TpCase &c, std::ostream *os)
{
    *os << "TP-" << c.degree << " over " << c.kv_heads << " KV heads";
}

/** Per-device bytes per token: the device's KV-head share of the
 *  full-token footprint, rounded up (as the simulator sizes them). */
std::vector<std::uint64_t>
deviceBpt(const TpCase &c)
{
    std::vector<std::uint64_t> bpt(c.degree);
    for (std::size_t i = 0; i < c.degree; ++i) {
        std::uint64_t heads = llm::shardSplit(c.kv_heads, c.degree, i);
        bpt[i] = std::max<std::uint64_t>(
            (c.total_bpt * heads + c.kv_heads - 1) / c.kv_heads, 1);
    }
    return bpt;
}

/**
 * The replaced lockstep replay: one pool per device, each op applied
 * in device order.  A refusal by device 0 changes nothing.  A refusal
 * by a later device, after device 0 took blocks, is what the old
 * facade rolled back; here it is recorded in `late_refusals` and
 * fails the test, so the reference needs no rollback.
 */
class LockstepPools
{
  public:
    explicit LockstepPools(const TpCase &c)
    {
        for (std::uint64_t bpt : deviceBpt(c))
            pools_.emplace_back(KvBlockPoolConfig{c.capacity_per_device,
                                                  kBt, bpt});
    }

    std::size_t degree() const { return pools_.size(); }
    const KvBlockPool &device(std::size_t i) const { return pools_[i]; }

    bool
    allocSequence(std::uint64_t seq, std::size_t tokens)
    {
        return replay([&](KvBlockPool &p) {
            return p.allocSequence(seq, tokens);
        });
    }

    bool
    extendSequence(std::uint64_t seq, std::size_t tokens)
    {
        return replay([&](KvBlockPool &p) {
            return p.extendSequence(seq, tokens);
        });
    }

    /** Attach the first `blocks` blocks of `src` on every device. */
    void
    attachPrefix(std::uint64_t seq, std::uint64_t src, std::size_t blocks,
                 std::size_t tokens)
    {
        for (auto &p : pools_) {
            const auto &ids = p.seqBlockIds(src);
            p.attachSequence(
                seq, std::vector<BlockId>(ids.begin(), ids.begin() +
                                                           blocks),
                tokens);
        }
    }

    void
    freeSequence(std::uint64_t seq)
    {
        for (auto &p : pools_)
            p.freeSequence(seq);
    }

    bool
    allocCacheBlock(std::size_t fill, std::vector<BlockId> *out)
    {
        out->assign(pools_.size(), 0);
        std::size_t i = 0;
        return replay([&](KvBlockPool &p) {
            return p.allocCacheBlock(fill, &(*out)[i++]);
        });
    }

    /** Reference block `index` of `seq` from the cache, per device. */
    std::vector<BlockId>
    refSeqBlock(std::uint64_t seq, std::size_t index)
    {
        std::vector<BlockId> ids;
        for (auto &p : pools_) {
            ids.push_back(p.seqBlockIds(seq)[index]);
            p.addBlockRef(ids.back());
        }
        return ids;
    }

    void
    releaseBlockRef(const std::vector<BlockId> &ids)
    {
        for (std::size_t i = 0; i < pools_.size(); ++i)
            pools_[i].releaseBlockRef(ids[i]);
    }

    void
    setReclaimer(std::function<void(std::uint64_t)> reclaim,
                 std::function<std::uint64_t()> reclaimable)
    {
        for (auto &p : pools_)
            p.setReclaimer(reclaim, reclaimable);
    }

    std::size_t
    freeTokens() const
    {
        std::size_t t = std::numeric_limits<std::size_t>::max();
        for (const auto &p : pools_)
            t = std::min(t, p.freeTokens());
        return t;
    }

    std::size_t
    extendableTokens(std::uint64_t seq) const
    {
        std::size_t t = std::numeric_limits<std::size_t>::max();
        for (const auto &p : pools_)
            t = std::min(t, p.extendableTokens(seq));
        return t;
    }

    /** Ops a device other than 0 refused after device 0 accepted. */
    std::uint64_t late_refusals = 0;

  private:
    template <typename Op>
    bool
    replay(Op op)
    {
        for (std::size_t i = 0; i < pools_.size(); ++i) {
            if (op(pools_[i]))
                continue;
            if (i > 0)
                ++late_refusals;
            return false;
        }
        return true;
    }

    std::vector<KvBlockPool> pools_;
};

/**
 * Drives the single table and the reference with one seeded op stream
 * and compares them after every op.  Each side keeps its own list of
 * cache-held blocks, and its reclaimer surrenders the oldest ones the
 * cache alone references (refcount 1 on the table that decides —
 * device 0's in the reference), as the prefix cache does.
 */
class Equivalence
{
  public:
    Equivalence(const TpCase &c, std::uint64_t seed)
        : bpt_(deviceBpt(c)), rng_(seed),
          single_(KvBlockPoolConfig{c.capacity_per_device, kBt, bpt_[0]}),
          ref_(c)
    {
        single_.setReclaimer(
            [this](std::uint64_t need) {
                reclaimed += reclaim(
                    &single_cache_, need,
                    [this](BlockId b) { return single_.blockRefs(b); },
                    [this](BlockId b) { single_.releaseBlockRef(b); });
            },
            [this] {
                return reclaimable(&single_cache_, [this](BlockId b) {
                    return single_.blockRefs(b);
                });
            });
        ref_.setReclaimer(
            [this](std::uint64_t need) {
                reclaim(&ref_cache_, need,
                        [this](const std::vector<BlockId> &ids) {
                            return ref_.device(0).blockRefs(ids[0]);
                        },
                        [this](const std::vector<BlockId> &ids) {
                            ref_.releaseBlockRef(ids);
                        });
            },
            [this] {
                return reclaimable(
                    &ref_cache_, [this](const std::vector<BlockId> &ids) {
                        return ref_.device(0).blockRefs(ids[0]);
                    });
            });
    }

    void
    run(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            // Out of 16: alloc 3, extend 3, append 3, attach 1, free 3
            // (a full running set frees instead of admitting), cache
            // alloc / writer-block reference / release 1 each.
            const std::uint64_t op = rng_.uniformInt(16);
            const bool admit = live_.size() < 12;
            if (op < 3)
                admit ? alloc() : freeOne();
            else if (op < 6)
                extend(1 + rng_.uniformInt(12));
            else if (op < 9)
                extend(1); // decode append
            else if (op == 9)
                admit ? attach() : freeOne();
            else if (op < 13)
                freeOne();
            else if (op == 13)
                cacheAlloc();
            else if (op == 14)
                cacheWriterBlock();
            else
                cacheRelease();
            ASSERT_NO_FATAL_FAILURE(compare());
        }
    }

    /** Free everything; both sides must return every block. */
    void
    drain()
    {
        for (std::uint64_t seq : live_) {
            single_.freeSequence(seq);
            ref_.freeSequence(seq);
        }
        live_.clear();
        for (BlockId b : single_cache_)
            single_.releaseBlockRef(b);
        for (const auto &ids : ref_cache_)
            ref_.releaseBlockRef(ids);
        single_cache_.clear();
        ref_cache_.clear();
        forks = single_.stats().cow_forks;
        EXPECT_EQ(single_.usedBlocks(), 0u);
        for (std::size_t d = 0; d < ref_.degree(); ++d)
            EXPECT_EQ(ref_.device(d).usedBlocks(), 0u) << "device " << d;
    }

    /** Coverage counters: ops accepted and refused, blocks the single
     *  table reclaimed, copy-on-write forks. */
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::uint64_t reclaimed = 0;
    std::uint64_t forks = 0;

  private:
    /** @return blocks released (at most `need`). */
    template <typename Ids, typename Refs, typename Release>
    static std::uint64_t
    reclaim(std::deque<Ids> *cache, std::uint64_t need, Refs refs,
            Release release)
    {
        std::uint64_t released = 0;
        for (auto it = cache->begin();
             released < need && it != cache->end();) {
            if (refs(*it) != 1) {
                ++it;
                continue;
            }
            release(*it);
            it = cache->erase(it);
            ++released;
        }
        return released;
    }

    template <typename Ids, typename Refs>
    static std::uint64_t
    reclaimable(const std::deque<Ids> *cache, Refs refs)
    {
        std::uint64_t n = 0;
        for (const auto &ids : *cache)
            n += refs(ids) == 1 ? 1 : 0;
        return n;
    }

    void
    expectSame(bool single_ok, bool ref_ok)
    {
        EXPECT_EQ(single_ok, ref_ok);
        EXPECT_EQ(ref_.late_refusals, 0u)
            << "a device other than 0 refused an op device 0 accepted";
        ++(single_ok ? successes : failures);
    }

    void
    alloc()
    {
        const std::uint64_t seq = next_seq_++;
        // Up to a third of device 0's table: some fit, some do not.
        const std::size_t tokens =
            1 + rng_.uniformInt(single_.totalBlocks() * kBt / 3);
        const bool ok = single_.allocSequence(seq, tokens);
        expectSame(ok, ref_.allocSequence(seq, tokens));
        if (ok)
            live_.push_back(seq);
    }

    void
    extend(std::size_t tokens)
    {
        if (live_.empty())
            return;
        const std::uint64_t seq = live_[rng_.uniformInt(live_.size())];
        const bool ok = single_.extendSequence(seq, tokens);
        expectSame(ok, ref_.extendSequence(seq, tokens));
    }

    /** A prefix hit: share another sequence's leading blocks, either
     *  its full blocks or its whole list (then a write forks the
     *  shared tail). */
    void
    attach()
    {
        if (live_.empty())
            return;
        const std::uint64_t src = live_[rng_.uniformInt(live_.size())];
        const std::size_t held = single_.seqTokens(src);
        std::size_t blocks, tokens;
        if (rng_.uniformInt(2) == 0) {
            blocks = held / kBt;
            tokens = blocks * kBt;
        } else {
            blocks = single_.seqBlocks(src);
            tokens = held;
        }
        if (tokens == 0)
            return;
        const std::uint64_t seq = next_seq_++;
        const auto &ids = single_.seqBlockIds(src);
        single_.attachSequence(
            seq, std::vector<BlockId>(ids.begin(), ids.begin() + blocks),
            tokens);
        ref_.attachPrefix(seq, src, blocks, tokens);
        live_.push_back(seq);
    }

    void
    freeOne()
    {
        if (live_.empty())
            return;
        auto it = live_.begin() + static_cast<std::ptrdiff_t>(
                                      rng_.uniformInt(live_.size()));
        single_.freeSequence(*it);
        ref_.freeSequence(*it);
        live_.erase(it);
    }

    /** A partial prefix tail stored in a cache-owned block. */
    void
    cacheAlloc()
    {
        const std::size_t fill = 1 + rng_.uniformInt(kBt);
        BlockId b = 0;
        std::vector<BlockId> ids;
        const bool ok = single_.allocCacheBlock(fill, &b);
        expectSame(ok, ref_.allocCacheBlock(fill, &ids));
        if (ok) {
            single_cache_.push_back(b);
            ref_cache_.push_back(ids);
        }
    }

    /** The cache indexes one of a writer's full blocks. */
    void
    cacheWriterBlock()
    {
        if (live_.empty())
            return;
        const std::uint64_t seq = live_[rng_.uniformInt(live_.size())];
        const std::size_t full = single_.seqTokens(seq) / kBt;
        if (full == 0)
            return;
        const std::size_t index = rng_.uniformInt(full);
        const BlockId b = single_.seqBlockIds(seq)[index];
        single_.addBlockRef(b);
        single_cache_.push_back(b);
        ref_cache_.push_back(ref_.refSeqBlock(seq, index));
    }

    void
    cacheRelease()
    {
        if (single_cache_.empty())
            return;
        const auto at = static_cast<std::ptrdiff_t>(
            rng_.uniformInt(single_cache_.size()));
        single_.releaseBlockRef(single_cache_[at]);
        ref_.releaseBlockRef(ref_cache_[at]);
        single_cache_.erase(single_cache_.begin() + at);
        ref_cache_.erase(ref_cache_.begin() + at);
    }

    void
    compare()
    {
        ASSERT_EQ(ref_.late_refusals, 0u);
        ASSERT_EQ(single_cache_.size(), ref_cache_.size());
        EXPECT_EQ(single_.freeTokens(), ref_.freeTokens());
        const std::uint64_t peak_blocks = single_.stats().peak_used_blocks;
        for (std::size_t d = 0; d < ref_.degree(); ++d) {
            const KvBlockPool &dev = ref_.device(d);
            SCOPED_TRACE(testing::Message() << "device " << d);
            EXPECT_EQ(single_.usedBlocks(), dev.usedBlocks());
            EXPECT_EQ(single_.storedTokens(), dev.storedTokens());
            EXPECT_EQ(peak_blocks * kBt * bpt_[d], dev.peakBytes());
            for (std::uint64_t seq : live_) {
                EXPECT_EQ(single_.seqTokens(seq), dev.seqTokens(seq));
                EXPECT_EQ(single_.seqBlockIds(seq), dev.seqBlockIds(seq));
            }
        }
        for (std::uint64_t seq : live_)
            EXPECT_EQ(single_.extendableTokens(seq),
                      ref_.extendableTokens(seq));
        EXPECT_EQ(single_.stats().cow_forks,
                  ref_.device(0).stats().cow_forks);
        EXPECT_EQ(single_.stats().failed_allocs,
                  ref_.device(0).stats().failed_allocs);
        ASSERT_FALSE(testing::Test::HasFailure());
    }

    std::vector<std::uint64_t> bpt_;
    Rng rng_;
    KvBlockPool single_;
    LockstepPools ref_;
    std::deque<BlockId> single_cache_;
    std::deque<std::vector<BlockId>> ref_cache_;
    std::vector<std::uint64_t> live_;
    std::uint64_t next_seq_ = 1;
};

class TpKvTable : public testing::TestWithParam<TpCase>
{
};

TEST_P(TpKvTable, MatchesLockstepPerDevicePools)
{
    const TpCase &c = GetParam();
    std::uint64_t successes = 0, failures = 0, reclaimed = 0, forks = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Equivalence eq(c, seed);
        ASSERT_NO_FATAL_FAILURE(eq.run(600));
        ASSERT_NO_FATAL_FAILURE(eq.drain());
        successes += eq.successes;
        failures += eq.failures;
        reclaimed += eq.reclaimed;
        forks += eq.forks;
    }
    // The streams reach every path they claim to cover: refusals
    // (device 0 full, reclaim exhausted), reclaim under pressure and
    // copy-on-write forks of shared tails.
    EXPECT_GT(successes, 0u);
    EXPECT_GT(failures, 0u);
    EXPECT_GT(reclaimed, 0u);
    EXPECT_GT(forks, 0u);
}

// Each capacity gives device 0 a 64-block table plus a partial block's
// bytes, so every device's block count rounds down.
INSTANTIATE_TEST_SUITE_P(
    Degrees, TpKvTable,
    testing::Values(TpCase{1, 8, 24, 6200}, TpCase{2, 8, 24, 3100},
                    TpCase{4, 8, 24, 1550},
                    // Uneven: 6 KV heads over 4 devices split 2,2,1,1
                    // (bytes per token 9,9,5,5 after rounding up), so
                    // devices 2-3 afford 116 blocks to device 0's 64.
                    TpCase{4, 6, 26, 2330}),
    [](const testing::TestParamInfo<TpCase> &info) {
        return "tp" + std::to_string(info.param.degree) + "_kvheads" +
               std::to_string(info.param.kv_heads);
    });

} // namespace
} // namespace vqllm::serving
