/**
 * @file
 * Tests for the cross-request KV prefix cache: longest match down the
 * pointer trie, shared-block attach and rollback, COW
 * forks on divergent writes, hit-aware LFU eviction that pins blocks
 * referenced by running sequences, pool-pressure reclaim, seeded
 * random op sequences checked against the pool/cache bounds and in
 * lockstep against a hash-chain reference index, and the
 * simulator-level contracts (cache-off reports carry a disabled prefix
 * section, cache-on runs save prefill and stay bit-identical across
 * host thread counts and TP degrees).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/prefix_cache.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

constexpr std::size_t kBt = 16;

KvBlockPool
smallPool(std::uint64_t blocks)
{
    KvBlockPoolConfig cfg;
    cfg.block_tokens = kBt;
    cfg.bytes_per_token = 1;
    cfg.capacity_bytes = blocks * kBt;
    return KvBlockPool(cfg);
}

Request
prefixRequest(std::uint64_t id, std::size_t prompt_len,
              std::int64_t group, std::size_t prefix_tokens)
{
    Request r;
    r.id = id;
    r.prompt_len = prompt_len;
    r.max_new_tokens = 8;
    r.prefix_group = group;
    r.prefix_tokens = prefix_tokens;
    return r;
}

/** Drive one writer through the scheduler protocol: allocate its
 *  context, mark it fully prefilled, index its prefix. */
void
writePrefix(KvBlockPool &pool, PrefixCache &cache, Request &r)
{
    ASSERT_TRUE(pool.allocSequence(r.id, r.prompt_len));
    r.prefilled_tokens = r.prompt_len;
    cache.onPrefillAdvance(r);
}

TEST(PrefixCache, MissThenHitAfterIndexing)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 0);

    Request a = prefixRequest(1, 48, 0, 32);
    EXPECT_EQ(cache.match(a).tokens, 0u); // cold: nothing indexed
    writePrefix(pool, cache, a);
    EXPECT_EQ(cache.cachedBlocks(), 2u); // 32 tokens = 2 full nodes
    EXPECT_EQ(cache.cachedTokens(), 32u);

    Request b = prefixRequest(2, 40, 0, 32);
    auto m = cache.match(b);
    EXPECT_EQ(m.tokens, 32u);
    ASSERT_EQ(m.nodes.size(), 2u);
    cache.attach(b, m);
    EXPECT_EQ(pool.seqTokens(2), 32u);
    // Attach shares the writer's blocks instead of taking free ones:
    // only the writer's 3 blocks are live.
    EXPECT_EQ(pool.usedBlocks(), 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().matched_tokens, 32u);
    // A different group shares nothing.
    Request c = prefixRequest(3, 48, 1, 32);
    EXPECT_EQ(cache.match(c).tokens, 0u);

    pool.freeSequence(1);
    pool.freeSequence(2);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, MatchLeavesOneTokenToPrefill)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 0);
    Request a = prefixRequest(1, 40, 0, 32);
    writePrefix(pool, cache, a);

    // The whole prompt is inside the cached prefix: the match must
    // stop one token short so admission still prefills a query.
    Request b = prefixRequest(2, 32, 0, 32);
    EXPECT_EQ(cache.match(b).tokens, 16u);
    pool.freeSequence(1);
    cache.clear();
}

TEST(PrefixCache, PartialTailIsCacheOwnedAndForksOnWrite)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 0);

    Request a = prefixRequest(1, 40, 0, 24); // 1 full node + 8-token tail
    writePrefix(pool, cache, a);
    EXPECT_EQ(cache.cachedBlocks(), 2u);
    EXPECT_EQ(cache.cachedTokens(), 24u);
    // 3 writer blocks + 1 cache-owned partial copy.
    EXPECT_EQ(pool.usedBlocks(), 4u);

    Request b = prefixRequest(2, 30, 0, 24);
    auto m = cache.match(b);
    EXPECT_EQ(m.tokens, 24u);
    cache.attach(b, m);
    EXPECT_EQ(pool.seqTokens(2), 24u);

    // Seq 2's first divergent write lands in the shared partial tail's
    // slack: the tail COW-forks, leaving the cache's copy untouched.
    ASSERT_TRUE(pool.extendSequence(2, 1));
    EXPECT_EQ(pool.stats().cow_forks, 1u);
    EXPECT_EQ(pool.seqTokens(2), 25u);
    EXPECT_EQ(cache.cachedTokens(), 24u);

    // The same prefix still matches for a third request.
    Request c = prefixRequest(3, 30, 0, 24);
    EXPECT_EQ(cache.match(c).tokens, 24u);
    pool.freeSequence(1);
    pool.freeSequence(2);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, RollbackAttachRestoresEverything)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 0);
    Request a = prefixRequest(1, 48, 0, 32);
    writePrefix(pool, cache, a);

    Request b = prefixRequest(2, 40, 0, 32);
    auto m = cache.match(b);
    cache.attach(b, m);
    std::uint64_t used = pool.usedBlocks();
    cache.rollbackAttach(b, m);
    EXPECT_EQ(pool.seqTokens(2), 0u);
    EXPECT_EQ(pool.usedBlocks(), used); // shared blocks merely deref'd
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().matched_tokens, 0u);
    EXPECT_EQ(cache.stats().rollbacks, 1u);
    pool.freeSequence(1);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, EvictionPinsBlocksOfRunningSequences)
{
    auto pool = smallPool(64);
    PrefixCache cache(pool, 2); // room for one 2-node chain

    Request a = prefixRequest(1, 48, 0, 32);
    writePrefix(pool, cache, a);
    EXPECT_EQ(cache.cachedBlocks(), 2u);

    // Seq 1 still runs, so its indexed blocks carry a second reference
    // and must not be evicted for group 1's insertions.
    Request b = prefixRequest(2, 48, 1, 32);
    writePrefix(pool, cache, b);
    EXPECT_EQ(cache.cachedBlocks(), 2u); // group 0 intact
    EXPECT_GT(cache.stats().skipped_inserts, 0u);
    EXPECT_EQ(cache.match(a).tokens, 32u);
    EXPECT_EQ(cache.match(b).tokens, 0u);

    // Once seq 1 retires, its prefix becomes evictable and group 1
    // can displace it (LFU; both chains cold).
    pool.freeSequence(1);
    cache.onRelease(1);
    b.prefilled_tokens = b.prompt_len;
    cache.onPrefillAdvance(b);
    EXPECT_EQ(cache.match(b).tokens, 32u);
    EXPECT_EQ(cache.match(a).tokens, 0u);
    EXPECT_EQ(cache.stats().evicted_nodes, 2u);
    pool.freeSequence(2);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, PoolPressureReclaimsColdPrefixes)
{
    auto pool = smallPool(8);
    PrefixCache cache(pool, 0);

    Request a = prefixRequest(1, 48, 0, 32); // 3 blocks + 2 cached refs
    writePrefix(pool, cache, a);
    pool.freeSequence(1);
    cache.onRelease(1);
    // The cache holds the only references to 2 blocks; 5 are free.
    EXPECT_EQ(pool.usedBlocks(), 2u);
    EXPECT_EQ(cache.evictableBlocks(), 1u); // leaf only (conservative)
    EXPECT_EQ(pool.freeTokens(), 7u * kBt); // 6 free + 1 reclaimable

    // A 7-block allocation forces the pool to ask the cache for blocks.
    ASSERT_TRUE(pool.allocSequence(2, 7 * kBt));
    EXPECT_GT(cache.stats().reclaimed_blocks, 0u);
    EXPECT_LT(cache.cachedBlocks(), 2u);
    pool.freeSequence(2);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, EvictionOrderIsLfuOverUnpinnedLeaves)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 0);
    obs::TraceRecorder rec;
    cache.setTrace(&rec);

    Request a = prefixRequest(1, 48, 0, 32); // nodes 1-2
    Request b = prefixRequest(2, 48, 1, 32); // nodes 3-4
    Request c = prefixRequest(3, 32, 2, 16); // node 5
    writePrefix(pool, cache, a);
    writePrefix(pool, cache, b);
    writePrefix(pool, cache, c);
    ASSERT_EQ(cache.cachedBlocks(), 5u);

    // One hit on group 1 makes its chain hotter than group 0's.
    Request d = prefixRequest(4, 40, 1, 32);
    cache.attach(d, cache.match(d));
    for (std::uint64_t id : {1u, 2u, 4u}) {
        pool.freeSequence(id);
        cache.onRelease(id);
    }

    // Leaves only, coldest first; node 5 stays pinned by its running
    // writer.  Evicting a leaf exposes its parent.
    auto evicted = [&rec] {
        std::vector<std::uint64_t> nodes;
        for (const auto &e : rec.events())
            if (e.name == "prefix_evict")
                nodes.push_back(static_cast<std::uint64_t>(
                    e.args.at(0).value));
        return nodes;
    };
    std::vector<std::uint64_t> evictable = {cache.evictableBlocks()};
    for (int i = 0; i < 4; ++i) {
        cache.reclaim(1);
        evictable.push_back(cache.evictableBlocks());
    }
    EXPECT_EQ(evicted(), (std::vector<std::uint64_t>{2, 1, 4, 3}));
    EXPECT_EQ(evictable, (std::vector<std::uint64_t>{2, 2, 1, 1, 0}));
    EXPECT_EQ(cache.cachedBlocks(), 1u);
    cache.reclaim(1); // nothing qualifies
    EXPECT_EQ(cache.cachedBlocks(), 1u);

    pool.freeSequence(3);
    cache.onRelease(3);
    cache.reclaim(1);
    EXPECT_EQ(evicted(), (std::vector<std::uint64_t>{2, 1, 4, 3, 5}));
    EXPECT_EQ(cache.stats().reclaimed_blocks, 5u);
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, EvictionTiesGoToTheOldestLeaf)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 0);
    Request a = prefixRequest(1, 32, 0, 16); // node 1
    Request b = prefixRequest(2, 32, 1, 16); // node 2
    writePrefix(pool, cache, a);
    writePrefix(pool, cache, b);
    pool.freeSequence(1);
    pool.freeSequence(2);

    cache.reclaim(1); // both cold: the older insertion goes
    EXPECT_EQ(cache.match(a).tokens, 0u);
    EXPECT_EQ(cache.match(b).tokens, 16u);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

TEST(PrefixCache, CapacityEvictionSparesTheInsertingParent)
{
    auto pool = smallPool(32);
    PrefixCache cache(pool, 3);

    // Two writers of group 0 each index the first 32 prefix tokens;
    // nodes 1-2 reference seq 1's blocks, seq 2 keeps its own copies.
    Request a = prefixRequest(1, 64, 0, 48);
    Request b = prefixRequest(2, 64, 0, 48);
    for (Request *r : {&a, &b}) {
        ASSERT_TRUE(pool.allocSequence(r->id, 32));
        r->prefilled_tokens = 32;
        cache.onPrefillAdvance(*r);
    }
    pool.freeSequence(1);
    cache.onRelease(1); // node 2 is now an unpinned leaf
    Request c = prefixRequest(3, 40, 1, 16);
    writePrefix(pool, cache, c); // node 3, pinned; the cache is full

    // Seq 2 crosses its third prefix block: the new node's parent is
    // node 2, the only capacity victim — so the insert is skipped.
    ASSERT_TRUE(pool.extendSequence(2, 16));
    b.prefilled_tokens = 48;
    cache.onPrefillAdvance(b);
    EXPECT_EQ(cache.cachedBlocks(), 3u);
    EXPECT_EQ(cache.stats().evicted_nodes, 0u);
    EXPECT_EQ(cache.stats().skipped_inserts, 1u);
    EXPECT_EQ(cache.match(b).tokens, 32u);

    pool.freeSequence(2);
    pool.freeSequence(3);
    cache.clear();
    EXPECT_EQ(cache.cachedBlocks(), 0u);
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

/** Grow a writer's sequence to `tokens` and index what it wrote. */
void
advanceTo(KvBlockPool &pool, PrefixCache &cache, Request &r,
          std::size_t tokens)
{
    if (r.prefilled_tokens == 0)
        ASSERT_TRUE(pool.allocSequence(r.id, tokens));
    else
        ASSERT_TRUE(pool.extendSequence(r.id, tokens - r.prefilled_tokens));
    r.prefilled_tokens = tokens;
    cache.onPrefillAdvance(r);
}

/** @return the first `n` block ids of a live sequence. */
std::vector<BlockId>
firstBlocks(const KvBlockPool &pool, std::uint64_t seq, std::size_t n)
{
    const std::vector<BlockId> &ids = pool.seqBlockIds(seq);
    return {ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(n)};
}

TEST(PrefixCache, MatchWalksWritersChainsAcrossSlices)
{
    auto pool = smallPool(64);
    PrefixCache cache(pool, 0);

    // Two interleaved writers: group 0 indexes a 72-token prefix (4
    // full blocks and an 8-token tail) over three slices, group 1 a
    // 48-token prefix over two, alternating.
    Request a = prefixRequest(1, 100, 0, 72);
    Request b = prefixRequest(2, 60, 1, 48);
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, a, 20));
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, b, 24));
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, a, 40));
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, b, 60));
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, a, 100));
    EXPECT_EQ(cache.cachedBlocks(), 8u);

    // A reader shares the writer's full blocks and the cache-owned
    // copy of the tail.
    Request c = prefixRequest(3, 100, 0, 72);
    PrefixCache::Match m = cache.match(c);
    EXPECT_EQ(m.tokens, 72u);
    EXPECT_EQ(m.nodes.size(), 5u);
    cache.attach(c, m);
    EXPECT_EQ(firstBlocks(pool, c.id, 4), firstBlocks(pool, a.id, 4));
    const std::vector<BlockId> &a_blocks = pool.seqBlockIds(a.id);
    EXPECT_EQ(std::find(a_blocks.begin(), a_blocks.end(),
                        pool.seqBlockIds(c.id)[4]),
              a_blocks.end());
    Request d = prefixRequest(4, 60, 1, 48);
    m = cache.match(d);
    EXPECT_EQ(m.tokens, 48u);
    EXPECT_EQ(m.nodes.size(), 3u);
    cache.attach(d, m);
    EXPECT_EQ(pool.seqBlockIds(d.id), firstBlocks(pool, b.id, 3));
    // Capped one token short of a 40-token prompt: two full blocks.
    Request e = prefixRequest(5, 40, 0, 72);
    m = cache.match(e);
    EXPECT_EQ(m.tokens, 32u);
    EXPECT_EQ(m.nodes.size(), 2u);
    cache.attach(e, m);
    EXPECT_EQ(pool.seqBlockIds(e.id), firstBlocks(pool, a.id, 2));

    for (const Request *r : {&a, &b, &c, &d, &e})
        pool.freeSequence(r->id);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);

    // Orphaned parent: writers f and g both pass two blocks of group
    // 2; the nodes hold f's blocks.  f retires and a reclaim between
    // g's slices takes the chain's leaf (the only evictable node), so
    // g's next slice finds its parent gone and skips the insert
    // instead of indexing past it.
    Request f = prefixRequest(6, 80, 2, 64);
    Request g = prefixRequest(7, 80, 2, 64);
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, f, 32));
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, g, 32));
    const BlockId root_block = pool.seqBlockIds(f.id)[0];
    pool.freeSequence(f.id);
    cache.onRelease(f.id);
    cache.reclaim(1);
    EXPECT_EQ(cache.stats().evicted_nodes, 1u);
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, g, 64));
    EXPECT_EQ(cache.stats().skipped_inserts, 1u);
    EXPECT_EQ(cache.cachedBlocks(), 1u);
    Request h = prefixRequest(8, 80, 2, 64);
    m = cache.match(h);
    EXPECT_EQ(m.tokens, 16u);
    EXPECT_EQ(m.nodes.size(), 1u);
    // A fresh writer re-indexes the chain under the surviving root
    // node, with its own blocks below it.
    const std::uint64_t inserted = cache.stats().inserted_nodes;
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, h, 80));
    EXPECT_EQ(cache.cachedBlocks(), 4u);
    EXPECT_EQ(cache.stats().inserted_nodes, inserted + 3);
    // g's walk now finds the re-inserted nodes: nothing new, no skip.
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, g, 80));
    EXPECT_EQ(cache.stats().skipped_inserts, 1u);
    EXPECT_EQ(cache.stats().inserted_nodes, inserted + 3);
    Request i = prefixRequest(9, 80, 2, 64);
    m = cache.match(i);
    EXPECT_EQ(m.tokens, 64u);
    EXPECT_EQ(m.nodes.size(), 4u);
    cache.attach(i, m);
    std::vector<BlockId> chain = firstBlocks(pool, h.id, 4);
    chain[0] = root_block;
    EXPECT_EQ(pool.seqBlockIds(i.id), chain);

    for (const Request *r : {&g, &h, &i})
        pool.freeSequence(r->id);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);
}

// ---- Randomized op sequences ----------------------------------------

/**
 * Seeded random operations in the scheduler's protocol over one pool
 * and cache, checking the pool/cache bounds after every operation.
 * Slices are sized by the pool's capacity queries exactly as the
 * scheduler sizes them, so an evictableBlocks() overcount shows up as
 * a failed extend.
 */
class OpSequence
{
  public:
    OpSequence(std::uint64_t seed, std::uint64_t capacity)
        : rng_(seed), pool_(smallPool(24)),
          cache_(pool_, capacity)
    {
    }

    void
    run(int ops)
    {
        // Out of 10: admit 3 (a full batch retires instead), advance
        // 3, rollback 1, retire 1, reclaim 2.
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t op = rng_.uniformInt(10);
            if (op < 3 && live_.size() < 6)
                ASSERT_NO_FATAL_FAILURE(admit());
            else if (op < 3 || op == 7)
                retire();
            else if (op < 6)
                ASSERT_NO_FATAL_FAILURE(advance());
            else if (op == 6)
                rollback();
            else
                reclaim();
            ASSERT_NO_FATAL_FAILURE(checkBounds());
        }
    }

    /** Free every sequence, then drain the cache one block at a time;
     *  nothing may leak. */
    void
    drain()
    {
        for (const Request &r : live_) {
            pool_.freeSequence(r.id);
            cache_.onRelease(r.id);
        }
        live_.clear();
        while (cache_.cachedBlocks() > 0) {
            ASSERT_GE(cache_.evictableBlocks(), 1u);
            const std::uint64_t used = pool_.usedBlocks();
            cache_.reclaim(1);
            ASSERT_EQ(pool_.usedBlocks(), used - 1);
        }
        EXPECT_EQ(pool_.usedBlocks(), 0u);
    }

    const PrefixCacheStats &stats() const { return cache_.stats(); }
    std::uint64_t cowForks() const { return pool_.stats().cow_forks; }

  private:
    Request
    newRequest()
    {
        // Group 0 ends in a partial node, group 1 is block-aligned,
        // group 2 is one full node plus a partial tail.
        static constexpr std::size_t kPrefix[] = {40, 48, 24};
        const auto group = static_cast<std::int64_t>(rng_.uniformInt(3));
        const std::size_t prefix = kPrefix[group];
        return prefixRequest(next_id_++, prefix + rng_.uniformInt(33),
                             group, prefix);
    }

    /** Match, then attach and extend by a suffix slice on a hit or
     *  allocate a first slice on a miss. */
    void
    admit()
    {
        Request r = newRequest();
        const PrefixCache::Match m = cache_.match(r);
        std::size_t take;
        if (m.tokens > 0) {
            cache_.attach(r, m);
            take = std::min(r.prompt_len - m.tokens,
                            pool_.extendableTokens(r.id));
            if (take == 0) {
                cache_.rollbackAttach(r, m);
                return;
            }
            take = 1 + rng_.uniformInt(take);
            ASSERT_TRUE(pool_.extendSequence(r.id, take));
        } else {
            take = std::min(r.prompt_len, pool_.freeTokens());
            if (take == 0)
                return;
            take = 1 + rng_.uniformInt(take);
            ASSERT_TRUE(pool_.allocSequence(r.id, take));
        }
        r.prefilled_tokens = m.tokens + take;
        cache_.onPrefillAdvance(r);
        live_.push_back(r);
    }

    void
    advance()
    {
        if (live_.empty())
            return;
        Request &r = live_[rng_.uniformInt(live_.size())];
        std::size_t take = std::min(r.prompt_len - r.prefilled_tokens,
                                    pool_.extendableTokens(r.id));
        if (take == 0)
            return; // fully prefilled, or blocked on KV
        take = 1 + rng_.uniformInt(take);
        ASSERT_TRUE(pool_.extendSequence(r.id, take));
        r.prefilled_tokens += take;
        cache_.onPrefillAdvance(r);
    }

    /** Attach a hit and revert it, as admission does when the suffix
     *  cannot take a slice. */
    void
    rollback()
    {
        Request r = newRequest();
        const PrefixCache::Match m = cache_.match(r);
        if (m.tokens == 0)
            return;
        const std::uint64_t used = pool_.usedBlocks();
        cache_.attach(r, m);
        cache_.rollbackAttach(r, m);
        EXPECT_EQ(pool_.seqTokens(r.id), 0u);
        EXPECT_EQ(pool_.usedBlocks(), used);
    }

    void
    retire()
    {
        if (live_.empty())
            return;
        auto it = live_.begin() +
                  static_cast<std::ptrdiff_t>(
                      rng_.uniformInt(live_.size()));
        pool_.freeSequence(it->id);
        cache_.onRelease(it->id);
        live_.erase(it);
    }

    /** reclaim(k) for k <= evictableBlocks() frees exactly k
     *  blocks. */
    void
    reclaim()
    {
        const std::uint64_t k =
            rng_.uniformInt(cache_.evictableBlocks() + 1);
        const std::uint64_t cached = cache_.cachedBlocks();
        const std::uint64_t used = pool_.usedBlocks();
        cache_.reclaim(k);
        EXPECT_EQ(cache_.cachedBlocks(), cached - k);
        EXPECT_EQ(pool_.usedBlocks(), used - k);
    }

    void
    checkBounds() const
    {
        const std::uint64_t cached = cache_.cachedBlocks();
        ASSERT_LE(cache_.evictableBlocks(), cached);
        ASSERT_LE(cached, pool_.usedBlocks());
        for (const Request &r : live_)
            ASSERT_EQ(pool_.seqTokens(r.id), r.prefilled_tokens);
    }

    Rng rng_;
    KvBlockPool pool_;
    PrefixCache cache_;
    std::vector<Request> live_;
    std::uint64_t next_id_ = 1;
};

TEST(PrefixCacheProperty, RandomOpSequencesKeepPoolAndCacheBounds)
{
    PrefixCacheStats total;
    std::uint64_t forks = 0;
    for (std::uint64_t capacity : {0u, 4u}) {
        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
            SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                            << " seed " << seed);
            OpSequence ops(seed, capacity);
            ASSERT_NO_FATAL_FAILURE(ops.run(400));
            ASSERT_NO_FATAL_FAILURE(ops.drain());
            total.hits += ops.stats().hits;
            total.evicted_nodes += ops.stats().evicted_nodes;
            total.reclaimed_blocks += ops.stats().reclaimed_blocks;
            total.skipped_inserts += ops.stats().skipped_inserts;
            total.rollbacks += ops.stats().rollbacks;
            forks += ops.cowForks();
        }
    }
    // The sequences reach every path they claim to cover: hits and
    // rollbacks, COW forks, capacity evictions (evicted beyond
    // reclaimed) and skipped inserts.
    EXPECT_GT(total.hits, 0u);
    EXPECT_GT(total.rollbacks, 0u);
    EXPECT_GT(forks, 0u);
    EXPECT_GT(total.evicted_nodes, total.reclaimed_blocks);
    EXPECT_GT(total.skipped_inserts, 0u);
}

// ---- Lockstep against the hash-chain index --------------------------

/**
 * The index as it was keyed before the trie, kept as the reference the
 * trie must match op for op: node i of a prefix is keyed by FNV-1a over
 * (parent key, group + 1, block index, node tokens) in a hash map, each
 * cached node memoizes the key of the full block after it, and a
 * request's progress keeps the key of the node it indexed last.  The
 * policy is the same: LFU over unpinned leaves by (freq, insertion id),
 * the inserting parent spared, orphans skipped.
 */
class HashChainCache
{
  public:
    struct Match
    {
        std::size_t tokens = 0;
        std::vector<std::uint64_t> node_hashes;
    };

    HashChainCache(KvBlockPool &pool, std::uint64_t capacity_blocks)
        : pool_(pool), capacity_blocks_(capacity_blocks)
    {
        pool_.setReclaimer(
            [this](std::uint64_t need) { reclaim(need); },
            [this] { return evictableBlocks(); });
    }

    ~HashChainCache()
    {
        clear();
        pool_.setReclaimer({}, {});
    }

    HashChainCache(const HashChainCache &) = delete;
    HashChainCache &operator=(const HashChainCache &) = delete;

    Match
    match(const Request &r)
    {
        Match m;
        if (r.prefix_group < 0 || r.prefix_tokens == 0 || r.prompt_len < 2)
            return m;
        ++stats_.lookups;
        const std::size_t bt = pool_.config().block_tokens;
        const std::size_t cap = std::min(r.prefix_tokens, r.prompt_len - 1);
        Node *parent = nullptr;
        std::size_t i = 0;
        while ((i + 1) * bt <= cap) {
            std::uint64_t h = parent == nullptr
                                  ? chainHash(0, r.prefix_group, 0, bt)
                                  : nextKey(*parent, r.prefix_group, i);
            auto it = nodes_.find(h);
            if (it == nodes_.end())
                break;
            m.node_hashes.push_back(h);
            m.tokens = (i + 1) * bt;
            parent = &it->second;
            ++i;
        }
        const std::size_t partial = r.prefix_tokens % bt;
        if (partial > 0 && m.tokens == r.prefix_tokens - partial &&
            r.prefix_tokens <= cap) {
            std::uint64_t h = chainHash(parent == nullptr ? 0 : parent->hash,
                                        r.prefix_group, i, partial);
            if (nodes_.count(h) > 0) {
                m.node_hashes.push_back(h);
                m.tokens = r.prefix_tokens;
            }
        }
        return m;
    }

    void
    attach(const Request &r, const Match &m)
    {
        std::vector<BlockId> blocks;
        for (std::uint64_t h : m.node_hashes) {
            Node &n = nodes_.at(h);
            ++n.freq;
            blocks.push_back(n.block);
        }
        pool_.attachSequence(r.id, blocks, m.tokens);
        inserted_[r.id] = {m.tokens, m.node_hashes.back()};
        ++stats_.hits;
        stats_.matched_tokens += m.tokens;
        if (trace_)
            trace_->instant("prefix_hit", "prefix", 0, trace_->now(),
                            {{"seq", static_cast<double>(r.id)},
                             {"tokens", static_cast<double>(m.tokens)}});
    }

    void
    rollbackAttach(const Request &r, const Match &m)
    {
        pool_.freeSequence(r.id);
        for (std::uint64_t h : m.node_hashes)
            --nodes_.at(h).freq;
        inserted_.erase(r.id);
        --stats_.hits;
        stats_.matched_tokens -= m.tokens;
        ++stats_.rollbacks;
        if (trace_)
            trace_->instant("prefix_rollback", "prefix", 0, trace_->now(),
                            {{"seq", static_cast<double>(r.id)}});
    }

    void
    onPrefillAdvance(const Request &r)
    {
        if (r.prefix_group < 0 || r.prefix_tokens == 0)
            return;
        const std::size_t bt = pool_.config().block_tokens;
        const std::size_t written =
            std::min(r.prefilled_tokens, r.prefix_tokens);
        auto prog = inserted_.find(r.id);
        const Progress done =
            prog == inserted_.end() ? Progress{} : prog->second;
        if (written <= done.tokens)
            return;
        std::uint64_t parent = done.key;
        auto found = nodes_.find(parent);
        Node *parent_node = found == nodes_.end() ? nullptr : &found->second;
        std::size_t i = done.tokens / bt;
        while ((i + 1) * bt <= written) {
            std::uint64_t h = parent_node == nullptr
                                  ? chainHash(parent, r.prefix_group, i, bt)
                                  : nextKey(*parent_node, r.prefix_group, i);
            parent_node = insertNode(r, i, h, parent, bt, false);
            if (parent_node == nullptr)
                break;
            parent = h;
            ++i;
        }
        std::size_t indexed = i * bt;
        const std::size_t partial = r.prefix_tokens % bt;
        if (partial > 0 && indexed == r.prefix_tokens - partial &&
            written >= r.prefix_tokens) {
            std::uint64_t h = chainHash(parent, r.prefix_group, i, partial);
            if (insertNode(r, i, h, parent, partial, true) != nullptr) {
                indexed = r.prefix_tokens;
                parent = h;
            }
        }
        inserted_[r.id] = {indexed, parent};
    }

    void onRelease(std::uint64_t seq_id) { inserted_.erase(seq_id); }

    void
    reclaim(std::uint64_t need_blocks)
    {
        for (std::uint64_t freed = 0; freed < need_blocks; ++freed)
            if (!evictOne(true))
                return;
    }

    std::uint64_t
    evictableBlocks() const
    {
        std::uint64_t count = 0;
        for (const auto &[id, n] : leaves_)
            if (pool_.blockRefs(n->block) == 1)
                ++count;
        return count;
    }

    void
    clear()
    {
        while (!leaves_.empty())
            eraseNode(leaves_.rbegin()->second->hash);
        inserted_.clear();
        cached_tokens_ = 0;
    }

    std::uint64_t cachedBlocks() const { return nodes_.size(); }
    std::size_t cachedTokens() const { return cached_tokens_; }
    const PrefixCacheStats &stats() const { return stats_; }
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

  private:
    struct Node
    {
        std::uint64_t id = 0;
        std::uint64_t hash = 0;
        std::uint64_t parent = 0;
        std::uint32_t children = 0;
        std::uint32_t tokens = 0;
        bool partial = false;
        std::uint64_t freq = 0;
        BlockId block = 0;
        std::uint64_t next = 0;
    };

    struct Progress
    {
        std::size_t tokens = 0;
        std::uint64_t key = 0;
    };

    static std::uint64_t
    chainHash(std::uint64_t parent, std::int64_t group, std::size_t index,
              std::size_t tokens)
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        auto mix = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xffu;
                h *= 0x100000001b3ull;
            }
        };
        mix(parent);
        mix(static_cast<std::uint64_t>(group) + 1);
        mix(index);
        mix(tokens);
        return h == 0 ? 1 : h;
    }

    std::uint64_t
    nextKey(Node &parent, std::int64_t group, std::size_t index)
    {
        if (parent.next == 0)
            parent.next = chainHash(parent.hash, group, index,
                                    pool_.config().block_tokens);
        return parent.next;
    }

    Node *
    insertNode(const Request &r, std::size_t index, std::uint64_t hash,
               std::uint64_t parent, std::size_t tokens, bool partial)
    {
        auto found = nodes_.find(hash);
        if (found != nodes_.end())
            return &found->second;
        if (parent != 0 && nodes_.count(parent) == 0) {
            ++stats_.skipped_inserts;
            return nullptr;
        }
        if (capacity_blocks_ > 0 && nodes_.size() >= capacity_blocks_ &&
            !evictOne(false, parent)) {
            ++stats_.skipped_inserts;
            return nullptr;
        }
        Node n;
        n.hash = hash;
        n.parent = parent;
        n.tokens = static_cast<std::uint32_t>(tokens);
        n.partial = partial;
        n.freq = 1;
        if (partial) {
            if (!pool_.allocCacheBlock(tokens, &n.block)) {
                ++stats_.skipped_inserts;
                return nullptr;
            }
        } else {
            n.block = pool_.seqBlockIds(r.id)[index];
            pool_.addBlockRef(n.block);
        }
        n.id = next_node_id_++;
        if (parent != 0) {
            Node &p = nodes_.at(parent);
            if (p.children++ == 0)
                leaves_.erase(p.id);
        }
        cached_tokens_ += tokens;
        Node &node = nodes_.emplace(hash, n).first->second;
        leaves_.emplace(node.id, &node);
        ++stats_.inserted_nodes;
        return &node;
    }

    bool
    evictOne(bool reclaiming, std::uint64_t keep = 0)
    {
        const Node *victim = nullptr;
        for (const auto &[id, n] : leaves_) {
            if (n->hash == keep || pool_.blockRefs(n->block) > 1)
                continue;
            if (victim == nullptr || n->freq < victim->freq)
                victim = n;
        }
        if (victim == nullptr)
            return false;
        if (trace_)
            trace_->instant("prefix_evict", "prefix", 0, trace_->now(),
                            {{"node", static_cast<double>(victim->id)},
                             {"tokens",
                              static_cast<double>(victim->tokens)}});
        eraseNode(victim->hash);
        ++stats_.evicted_nodes;
        if (reclaiming)
            ++stats_.reclaimed_blocks;
        return true;
    }

    void
    eraseNode(std::uint64_t hash)
    {
        auto it = nodes_.find(hash);
        Node &n = it->second;
        pool_.releaseBlockRef(n.block);
        if (n.parent != 0) {
            Node &p = nodes_.at(n.parent);
            if (--p.children == 0)
                leaves_.emplace(p.id, &p);
        }
        cached_tokens_ -= n.tokens;
        leaves_.erase(n.id);
        nodes_.erase(it);
    }

    KvBlockPool &pool_;
    std::uint64_t capacity_blocks_;
    std::unordered_map<std::uint64_t, Node> nodes_;
    std::map<std::uint64_t, Node *> leaves_;
    std::unordered_map<std::uint64_t, Progress> inserted_;
    std::size_t cached_tokens_ = 0;
    std::uint64_t next_node_id_ = 1;
    PrefixCacheStats stats_;
    obs::TraceRecorder *trace_ = nullptr;
};

/** One pool with its cache, traced. */
template <typename Cache>
struct Twin
{
    Twin(std::size_t block_tokens, std::uint64_t capacity)
        : pool(KvBlockPoolConfig{.capacity_bytes = 24 * block_tokens,
                                 .block_tokens = block_tokens,
                                 .bytes_per_token = 1}),
          cache(pool, capacity)
    {
        cache.setTrace(&trace);
    }

    obs::TraceRecorder trace;
    KvBlockPool pool;
    Cache cache;
};

/**
 * Seeded random operations in the scheduler's protocol, applied to the
 * trie and to the hash-chain reference on twin pools; after every
 * operation both sides must agree on every observable: cache stats and
 * occupancy, evictable blocks, pool occupancy and COW forks, each live
 * sequence's block ids, each match and every traced prefix event.
 */
class Lockstep
{
  public:
    Lockstep(std::uint64_t seed, std::size_t block_tokens,
             std::uint64_t capacity)
        : rng_(seed), trie_(block_tokens, capacity),
          ref_(block_tokens, capacity)
    {
    }

    void
    run(int ops)
    {
        // Out of 10: admit 3 (a full batch retires instead), advance
        // 3, rollback 1, retire 1, reclaim 2.
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t op = rng_.uniformInt(10);
            if (op < 3 && live_.size() < 6)
                ASSERT_NO_FATAL_FAILURE(admit());
            else if (op < 3 || op == 7)
                retire();
            else if (op < 6)
                ASSERT_NO_FATAL_FAILURE(advance());
            else if (op == 6)
                ASSERT_NO_FATAL_FAILURE(rollback());
            else
                reclaim();
            ASSERT_NO_FATAL_FAILURE(compare());
        }
        for (const Request &r : live_)
            both([&](auto &s) {
                s.pool.freeSequence(r.id);
                s.cache.onRelease(r.id);
            });
        live_.clear();
        both([](auto &s) { s.cache.reclaim(s.cache.evictableBlocks()); });
        ASSERT_NO_FATAL_FAILURE(compare());
    }

    const PrefixCacheStats &stats() const { return trie_.cache.stats(); }
    std::uint64_t cowForks() const { return trie_.pool.stats().cow_forks; }
    std::uint64_t evictEvents() const { return evict_events_; }

  private:
    template <typename F>
    void
    both(F &&f)
    {
        f(trie_);
        f(ref_);
    }

    /** Several prefix lengths per group, so a node carries more than
     *  one partial tail and some prefixes are shorter than a block. */
    Request
    newRequest()
    {
        static constexpr std::size_t kPrefix[] = {5, 12, 14, 16, 36, 40, 44};
        const auto group = static_cast<std::int64_t>(rng_.uniformInt(3));
        const std::size_t prefix = kPrefix[rng_.uniformInt(7)];
        return prefixRequest(next_id_++, prefix + rng_.uniformInt(33),
                             group, prefix);
    }

    /** Match on both sides; the matches must agree. */
    std::pair<PrefixCache::Match, HashChainCache::Match>
    matchBoth(const Request &r)
    {
        auto m = std::make_pair(trie_.cache.match(r), ref_.cache.match(r));
        EXPECT_EQ(m.first.tokens, m.second.tokens);
        EXPECT_EQ(m.first.nodes.size(), m.second.node_hashes.size());
        return m;
    }

    void
    admit()
    {
        Request r = newRequest();
        const auto [m, h] = matchBoth(r);
        std::size_t take;
        if (m.tokens > 0) {
            trie_.cache.attach(r, m);
            ref_.cache.attach(r, h);
            take = std::min(r.prompt_len - m.tokens,
                            trie_.pool.extendableTokens(r.id));
            ASSERT_EQ(take, std::min(r.prompt_len - m.tokens,
                                     ref_.pool.extendableTokens(r.id)));
            if (take == 0) {
                trie_.cache.rollbackAttach(r, m);
                ref_.cache.rollbackAttach(r, h);
                return;
            }
            take = 1 + rng_.uniformInt(take);
            both([&](auto &s) {
                ASSERT_TRUE(s.pool.extendSequence(r.id, take));
            });
        } else {
            take = std::min(r.prompt_len, trie_.pool.freeTokens());
            ASSERT_EQ(take, std::min(r.prompt_len, ref_.pool.freeTokens()));
            if (take == 0)
                return;
            take = 1 + rng_.uniformInt(take);
            both([&](auto &s) {
                ASSERT_TRUE(s.pool.allocSequence(r.id, take));
            });
        }
        r.prefilled_tokens = m.tokens + take;
        both([&](auto &s) { s.cache.onPrefillAdvance(r); });
        live_.push_back(r);
    }

    void
    advance()
    {
        if (live_.empty())
            return;
        Request &r = live_[rng_.uniformInt(live_.size())];
        std::size_t take = std::min(r.prompt_len - r.prefilled_tokens,
                                    trie_.pool.extendableTokens(r.id));
        if (take == 0)
            return;
        take = 1 + rng_.uniformInt(take);
        both([&](auto &s) {
            ASSERT_TRUE(s.pool.extendSequence(r.id, take));
        });
        r.prefilled_tokens += take;
        both([&](auto &s) { s.cache.onPrefillAdvance(r); });
    }

    void
    rollback()
    {
        Request r = newRequest();
        const auto [m, h] = matchBoth(r);
        if (m.tokens == 0)
            return;
        trie_.cache.attach(r, m);
        ref_.cache.attach(r, h);
        ASSERT_EQ(trie_.pool.seqBlockIds(r.id), ref_.pool.seqBlockIds(r.id));
        trie_.cache.rollbackAttach(r, m);
        ref_.cache.rollbackAttach(r, h);
    }

    void
    retire()
    {
        if (live_.empty())
            return;
        auto it = live_.begin() + static_cast<std::ptrdiff_t>(
                                      rng_.uniformInt(live_.size()));
        both([&](auto &s) {
            s.pool.freeSequence(it->id);
            s.cache.onRelease(it->id);
        });
        live_.erase(it);
    }

    void
    reclaim()
    {
        const std::uint64_t k =
            rng_.uniformInt(trie_.cache.evictableBlocks() + 1);
        both([&](auto &s) { s.cache.reclaim(k); });
    }

    void
    compare()
    {
        const PrefixCacheStats &a = trie_.cache.stats();
        const PrefixCacheStats &b = ref_.cache.stats();
        ASSERT_EQ(a.lookups, b.lookups);
        ASSERT_EQ(a.hits, b.hits);
        ASSERT_EQ(a.matched_tokens, b.matched_tokens);
        ASSERT_EQ(a.inserted_nodes, b.inserted_nodes);
        ASSERT_EQ(a.evicted_nodes, b.evicted_nodes);
        ASSERT_EQ(a.reclaimed_blocks, b.reclaimed_blocks);
        ASSERT_EQ(a.skipped_inserts, b.skipped_inserts);
        ASSERT_EQ(a.rollbacks, b.rollbacks);
        ASSERT_EQ(trie_.cache.cachedBlocks(), ref_.cache.cachedBlocks());
        ASSERT_EQ(trie_.cache.cachedTokens(), ref_.cache.cachedTokens());
        ASSERT_EQ(trie_.cache.evictableBlocks(),
                  ref_.cache.evictableBlocks());
        ASSERT_EQ(trie_.pool.usedBlocks(), ref_.pool.usedBlocks());
        ASSERT_EQ(trie_.pool.storedTokens(), ref_.pool.storedTokens());
        ASSERT_EQ(trie_.pool.stats().cow_forks, ref_.pool.stats().cow_forks);
        for (const Request &r : live_)
            ASSERT_EQ(trie_.pool.seqBlockIds(r.id),
                      ref_.pool.seqBlockIds(r.id));
        const auto ea = trie_.trace.events();
        const auto eb = ref_.trace.events();
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t i = 0; i < ea.size(); ++i) {
            ASSERT_EQ(ea[i].name, eb[i].name);
            ASSERT_EQ(ea[i].args.size(), eb[i].args.size());
            for (std::size_t j = 0; j < ea[i].args.size(); ++j) {
                ASSERT_EQ(ea[i].args[j].key, eb[i].args[j].key);
                ASSERT_EQ(ea[i].args[j].value, eb[i].args[j].value);
            }
        }
        evict_events_ += static_cast<std::uint64_t>(
            std::count_if(ea.begin(), ea.end(), [](const obs::TraceEvent &e) {
                return e.name == "prefix_evict";
            }));
        both([](auto &s) { s.trace.clear(); });
    }

    Rng rng_;
    Twin<PrefixCache> trie_;
    Twin<HashChainCache> ref_;
    std::vector<Request> live_;
    std::uint64_t next_id_ = 1;
    std::uint64_t evict_events_ = 0;
};

TEST(PrefixCacheProperty, MatchesHashChainReference)
{
    PrefixCacheStats total;
    std::uint64_t forks = 0;
    std::uint64_t evict_events = 0;
    for (std::size_t bt : {8u, 16u}) {
        for (std::uint64_t capacity : {0u, 2u, 4u, 7u}) {
            for (std::uint64_t seed = 1; seed <= 24; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "block " << bt << " capacity " << capacity
                             << " seed " << seed);
                Lockstep ops(seed, bt, capacity);
                ASSERT_NO_FATAL_FAILURE(ops.run(600));
                total.hits += ops.stats().hits;
                total.inserted_nodes += ops.stats().inserted_nodes;
                total.evicted_nodes += ops.stats().evicted_nodes;
                total.reclaimed_blocks += ops.stats().reclaimed_blocks;
                total.skipped_inserts += ops.stats().skipped_inserts;
                total.rollbacks += ops.stats().rollbacks;
                forks += ops.cowForks();
                evict_events += ops.evictEvents();
            }
        }
    }
    // The runs reach every path the comparison claims to cover.
    EXPECT_GT(total.hits, 0u);
    EXPECT_GT(total.rollbacks, 0u);
    EXPECT_GT(forks, 0u);
    EXPECT_GT(total.evicted_nodes, total.reclaimed_blocks);
    EXPECT_GT(total.skipped_inserts, 0u);
    EXPECT_EQ(evict_events, total.evicted_nodes);
}

// ---- Simulator-level contracts --------------------------------------

SimulatorConfig
prefixConfig(bool cache_on, int tp_degree = 1)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::VQ2;
    cfg.tp.degree = tp_degree;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 4;
    cfg.workload.prompt_len_median = 256;
    cfg.workload.prefix_groups = 2;
    cfg.workload.prefix_tokens = 1024;
    cfg.scheduler.chunk_tokens = 512;
    cfg.prefix_cache = cache_on;
    return cfg;
}

TEST(PrefixCacheSim, CacheOffReportCarriesDisabledPrefixSection)
{
    ServingReport off = ServingSimulator(prefixConfig(false)).run();
    EXPECT_FALSE(off.prefix_cache_enabled);
    EXPECT_NE(off.json().find(
                  "\"prefix_cache\":{\"enabled\":false,\"lookups\":0,"
                  "\"hits\":0,\"matched_tokens\":0,\"evicted_blocks\":0,"
                  "\"cached_blocks\":0,\"cow_forks\":0,\"hit_rate\":0}"),
              std::string::npos);
    EXPECT_EQ(off.summary().find("prefix cache"), std::string::npos);
    // Determinism: a second cache-off run is bit-identical.
    ServingReport again = ServingSimulator(prefixConfig(false)).run();
    EXPECT_EQ(off.json(), again.json());
}

TEST(PrefixCacheSim, CacheOnSavesPrefillAndImprovesTtft)
{
    ServingReport off = ServingSimulator(prefixConfig(false)).run();
    ServingReport on = ServingSimulator(prefixConfig(true)).run();

    EXPECT_TRUE(on.prefix_cache_enabled);
    EXPECT_GT(on.prefix_lookups, 0u);
    EXPECT_GT(on.prefix_hits, 0u);
    EXPECT_GT(on.prefix_matched_tokens, 0u);
    EXPECT_GT(on.prefix_hit_rate, 0.0);
    EXPECT_LE(on.prefix_hit_rate, 1.0);
    EXPECT_NE(on.json().find("\"prefix_cache\":{\"enabled\":true,"),
              std::string::npos);

    // Identical arrival trace: the cache can only remove prefill work,
    // and removing the shared prefix from the critical path must show
    // up in the mean time-to-first-token.
    EXPECT_EQ(on.completed_requests, off.completed_requests);
    EXPECT_LT(on.prefill_us, off.prefill_us);
    EXPECT_LT(on.ttft.mean_us, off.ttft.mean_us);
}

TEST(PrefixCacheSim, CacheOnIsBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    auto run = [](int threads) {
        par::setThreads(threads);
        obs::TraceRecorder rec;
        SimulatorConfig cfg = prefixConfig(true);
        cfg.trace = &rec;
        ServingReport r = ServingSimulator(cfg).run();
        return std::make_pair(r.json(), rec.chromeJson());
    };
    auto [r1, t1] = run(1);
    auto [r4, t4] = run(4);
    auto [r1b, t1b] = run(1);
    EXPECT_EQ(r1, r4);
    EXPECT_EQ(r1, r1b);
    EXPECT_EQ(t1, t4);
    EXPECT_EQ(t1, t1b);
}

TEST(PrefixCacheSim, ShardedRunMatchesAndEmitsCowForks)
{
    SimulatorConfig cfg = prefixConfig(true, 4);
    // 1000 % 16 == 8: every prefix ends in a partial node, and a
    // reader's first suffix write forks that shared tail.
    cfg.workload.prefix_tokens = 1000;
    ServingReport r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.tp_degree, 4u);
    EXPECT_GT(r.completed_requests, 0u);
    EXPECT_GT(r.prefix_matched_tokens, 0u);
    EXPECT_GT(r.cow_forks, 0u);
    EXPECT_LE(r.prefix_hit_rate, 1.0);
}

TEST(PrefixCacheSim, CappedCacheStillServesHits)
{
    SimulatorConfig cfg = prefixConfig(true);
    cfg.workload.prefix_groups = 8;
    cfg.prefix_capacity_blocks = 16; // far below one 1024-token prefix
    ServingReport r = ServingSimulator(cfg).run();
    // Eight tenants contend for 16 nodes: the cap evicts, yet hits
    // survive, and the run stays leak-free (asserted inside the
    // simulator) and deterministic.
    EXPECT_GT(r.prefix_evicted_blocks, 0u);
    EXPECT_GT(r.prefix_hits, 0u);
    ServingReport again = ServingSimulator(cfg).run();
    EXPECT_EQ(r.json(), again.json());
}

} // namespace
} // namespace vqllm::serving
