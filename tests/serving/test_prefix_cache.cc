/**
 * @file
 * Tests for the cross-request KV prefix cache: radix-style longest
 * match over the hash chain, shared-block attach and rollback, COW
 * forks on divergent writes, hit-aware LFU eviction that pins blocks
 * referenced by running sequences, pool-pressure reclaim, seeded
 * random op sequences checked against the pool/cache bounds, and the
 * simulator-level contracts (cache-off reports carry a disabled prefix
 * section, cache-on runs save prefill and stay bit-identical across
 * host thread counts and TP degrees).
 */
#include <gtest/gtest.h>

#include <algorithm>
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
    ASSERT_EQ(m.node_hashes.size(), 2u);
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

/** The index's key chain recomputed from scratch: FNV-1a over
 *  (parent key, group + 1, block index, block tokens), 8 little-endian
 *  bytes each, with 0 reserved for the root. */
std::uint64_t
fnvKey(std::uint64_t parent, std::int64_t group, std::size_t index,
       std::size_t tokens)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t v : {parent, static_cast<std::uint64_t>(group) + 1,
                            static_cast<std::uint64_t>(index),
                            static_cast<std::uint64_t>(tokens)})
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    return h == 0 ? 1 : h;
}

/** Keys of the first `tokens` tokens of a group's prefix: one per full
 *  block, then a partial tail if `tokens` is not block-aligned. */
std::vector<std::uint64_t>
fnvChain(std::int64_t group, std::size_t tokens)
{
    std::vector<std::uint64_t> keys;
    std::uint64_t parent = 0;
    std::size_t i = 0;
    for (; (i + 1) * kBt <= tokens; ++i)
        keys.push_back(parent = fnvKey(parent, group, i, kBt));
    if (tokens % kBt > 0)
        keys.push_back(fnvKey(parent, group, i, tokens % kBt));
    return keys;
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

TEST(PrefixCache, MatchKeysAreTheFnvChain)
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

    Request c = prefixRequest(3, 100, 0, 72);
    PrefixCache::Match m = cache.match(c);
    EXPECT_EQ(m.tokens, 72u);
    EXPECT_EQ(m.node_hashes, fnvChain(0, 72));
    Request d = prefixRequest(4, 60, 1, 48);
    m = cache.match(d);
    EXPECT_EQ(m.tokens, 48u);
    EXPECT_EQ(m.node_hashes, fnvChain(1, 48));
    // Capped one token short of a 40-token prompt: two full blocks.
    Request e = prefixRequest(5, 40, 0, 72);
    EXPECT_EQ(cache.match(e).node_hashes, fnvChain(0, 32));

    pool.freeSequence(a.id);
    pool.freeSequence(b.id);
    cache.clear();
    EXPECT_EQ(pool.usedBlocks(), 0u);

    // Orphaned parent: writers f and g both pass two blocks of group
    // 2; the nodes hold f's blocks.  f retires and a reclaim between
    // g's slices takes the chain's leaf (the only evictable node), so
    // g's next slice finds its parent gone and skips the insert
    // instead of keying past it.
    Request f = prefixRequest(6, 80, 2, 64);
    Request g = prefixRequest(7, 80, 2, 64);
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, f, 32));
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, g, 32));
    pool.freeSequence(f.id);
    cache.onRelease(f.id);
    cache.reclaim(1);
    EXPECT_EQ(cache.stats().evicted_nodes, 1u);
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, g, 64));
    EXPECT_EQ(cache.stats().skipped_inserts, 1u);
    Request h = prefixRequest(8, 80, 2, 64);
    EXPECT_EQ(cache.match(h).node_hashes, fnvChain(2, 16));
    // A fresh writer re-indexes the whole chain under the same keys.
    ASSERT_NO_FATAL_FAILURE(advanceTo(pool, cache, h, 80));
    Request i = prefixRequest(9, 80, 2, 64);
    EXPECT_EQ(cache.match(i).node_hashes, fnvChain(2, 64));

    pool.freeSequence(g.id);
    pool.freeSequence(h.id);
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
