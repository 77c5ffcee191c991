/**
 * @file
 * Cross-request KV prefix cache over the paged block pool.
 *
 * Requests that share a prefix (a tenant's system prompt, a few-shot
 * preamble) should not prefill it more than once.  The cache indexes
 * resident KV blocks at token-block granularity in a pointer *trie*:
 * requests name their prefix by (group, length), so a node is
 * identified by its position alone — its group's root list, then one
 * full block per level — and a lookup is a longest-match walk down
 * child pointers from the root: O(matched blocks), no token comparison
 * and no hashing.  A hit maps the matched blocks into the new sequence
 * as shared ref-counted blocks (KvBlockPool::attachSequence; one block
 * table serves every TP device) and the scheduler prefills only the
 * unmatched suffix.
 *
 * Each node links to its parent and to its children (first child, next
 * sibling): the next full block of its group's chain, plus the partial
 * tails that end a shorter prefix there.  Each group keeps one root
 * list, which leaves its map with its last node, so the index holds
 * state for cached nodes only, never for every group a trace names.  A
 * request's indexing progress is its indexed token count; a writer
 * resumes by walking its chain down to that depth, and a node missing
 * on the way orphans its next insert.
 *
 * Lifecycle: as a request's prefill advances past block boundaries
 * inside its declared prefix, the cache inserts nodes referencing the
 * just-written blocks (raising their refcounts, so the blocks outlive
 * the writer).  A prefix whose length is not block-aligned ends in a
 * *partial* node backed by a cache-owned block (allocCacheBlock); a
 * sequence attached through a partial node copy-on-write forks it on
 * its first divergent write (KvBlockPool handles the fork; the cache's
 * copy is untouched).
 *
 * Eviction is hit-aware LFU with masked pins, the CodebookResidency
 * discipline: only leaf nodes (no children) whose block no running
 * sequence references (refcount == 1, i.e. the cache holds the only
 * reference) are candidates; the victim is the minimum (freq,
 * insertion id).  Eviction triggers on the node-count capacity at
 * insert time and — via the pool's reclaimer hook — under allocation
 * pressure, so cached prefixes never starve admissions: the pool asks
 * the cache to surrender blocks before failing, and the paired
 * reclaimable query folds evictable blocks into capacity estimates.
 * Both walk a leaf index kept current on every insert and erase, so
 * they cost O(leaves), not O(cached blocks): a trie of long shared
 * prefixes has one leaf per chain.  A capacity eviction never takes the
 * parent of the node being inserted.
 *
 * Everything is deterministic: child lists are walked in link order,
 * scans walk a std::map keyed by insertion id, and the pool's LIFO id
 * reuse keeps block identities reproducible — cache-on runs are
 * bit-identical across host thread counts.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serving/kv_block_pool.h"
#include "serving/request.h"

namespace vqllm::obs {
class TraceRecorder;
class MetricsRegistry;
}

namespace vqllm::serving {

/** Lifetime counters of the prefix cache. */
struct PrefixCacheStats
{
    /** match() calls on prefix-bearing requests: one per admission
     *  attempt, so a queue head blocked on KV counts once per retry
     *  (lookups can exceed the request count). */
    std::uint64_t lookups = 0;
    /** Lookups that matched at least one block. */
    std::uint64_t hits = 0;
    /** Prompt tokens served from cache instead of prefill. */
    std::uint64_t matched_tokens = 0;
    std::uint64_t inserted_nodes = 0;
    std::uint64_t evicted_nodes = 0;
    /** Blocks surrendered to the pool's reclaimer under pressure
     *  (subset of evicted_nodes). */
    std::uint64_t reclaimed_blocks = 0;
    /** Insertions skipped (pool full, capacity pinned, or orphaned
     *  parent). */
    std::uint64_t skipped_inserts = 0;
    /** Attaches reverted because the unmatched suffix could not get a
     *  first slice (hits/matched_tokens are taken back). */
    std::uint64_t rollbacks = 0;
};

/**
 * Block-granular prefix index over a KvBlockPool.
 *
 * The scheduler drives it: match() before admission, attach() on a hit
 * (or rollbackAttach() if admission then stalls), onPrefillAdvance()
 * after every prefill slice, onRelease() at retire/preempt.  The
 * constructor registers the cache as the pool's reclaimer; the
 * destructor drops every cached reference and unregisters.  Nodes are
 * the pool's blocks, so they hold the pool's block_tokens.
 */
class PrefixCache
{
    struct Node;

  public:
    /** @param capacity_blocks max cached nodes (= cached blocks); 0 =
     *  bounded only by pool pressure via the reclaimer. */
    PrefixCache(KvBlockPool &pool, std::uint64_t capacity_blocks);
    ~PrefixCache();

    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    /**
     * Longest-match result: the matched token count and the nodes
     * backing it (root-to-leaf order).
     *
     * The node pointers stay valid until the attach() or
     * rollbackAttach() that consumes the match: nothing evicts between
     * a match() and its attach(), and an attached node's block has
     * refcount > 1 (pinned against eviction) until rollbackAttach()
     * frees the sequence, which it does before it touches the nodes.
     */
    struct Match
    {
        std::size_t tokens = 0;
        std::vector<Node *> nodes;
    };

    /** Longest cached prefix of the request's prompt.  Matches at most
     *  prompt_len - 1 tokens so every request prefills at least one
     *  token (attention needs a query). */
    Match match(const Request &r);

    /** Map a match's blocks into the request's sequence (no free
     *  blocks consumed) and count the hit. */
    void attach(const Request &r, const Match &m);

    /** Revert attach(): the request could not take a prefill slice
     *  this iteration, so it is not admitted after all. */
    void rollbackAttach(const Request &r, const Match &m);

    /** Index the blocks a prefill slice just completed (call after
     *  every slice, including the admitting one). */
    void onPrefillAdvance(const Request &r);

    /** Forget per-request insertion progress (retire or preempt). */
    void onRelease(std::uint64_t seq_id);

    /** Pool pressure hook: evict cold unpinned nodes until
     *  `need_blocks` blocks are freed or none qualify. */
    void reclaim(std::uint64_t need_blocks);

    /** @return blocks reclaim() could free right now
     *  (unpinned leaves; a conservative undercount of whole evictable
     *  chains). */
    std::uint64_t evictableBlocks() const;

    /** Drop every cached reference (end of run; enables the pool-level
     *  leak check). */
    void clear();

    /** @return cached nodes == cached blocks. */
    std::uint64_t cachedBlocks() const { return cached_nodes_; }

    /** @return tokens the cached nodes store. */
    std::size_t cachedTokens() const { return cached_tokens_; }

    const PrefixCacheStats &stats() const { return stats_; }

    /** Attach a trace recorder (nullptr = off): prefix_hit /
     *  prefix_rollback / prefix_evict record as instants. */
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

    /** Publish counters and occupancy under `<prefix>.`-qualified
     *  names (e.g. `serving.kv.prefix`). */
    void exportMetrics(obs::MetricsRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Node
    {
        /** Insertion order (1-based); eviction tie-break and scan
         *  order.  Parents always precede children. */
        std::uint64_t id = 0;
        /** Hit-aware LFU frequency. */
        std::uint64_t freq = 0;
        /** nullptr = a root of its group. */
        Node *parent = nullptr;
        /** Head of the child list (nullptr = a leaf) and the next node
         *  in the parent's (or the group's root) list. */
        std::unique_ptr<Node> child;
        std::unique_ptr<Node> sibling;
        std::int64_t group = 0;
        /** Tokens this node stores: block_tokens, or fewer for a
         *  partial tail backed by a cache-owned block. */
        std::uint32_t tokens = 0;
        BlockId block = 0;
    };

    /** @return the child of `parent` (nullptr = `group`'s root list)
     *  that stores `tokens` tokens, or nullptr. */
    Node *findChild(Node *parent, std::int64_t group,
                    std::size_t tokens);

    /** @return the node storing block `index` of the request's prefix
     *  (inserted now, or already indexed by another request), or
     *  nullptr if the insert was skipped. */
    Node *insertNode(const Request &r, std::size_t index, Node *parent,
                     std::size_t tokens);
    /** Evict the LFU unpinned leaf other than `keep`. */
    bool evictOne(bool reclaiming, const Node *keep = nullptr);
    void eraseNode(Node *n);

    KvBlockPool &pool_;
    std::uint64_t capacity_blocks_;
    /** Prefix group -> head of its root list; owns the trie (each node
     *  owns its child and sibling links), and holds only groups with
     *  cached nodes. */
    std::unordered_map<std::int64_t, std::unique_ptr<Node>> roots_;
    /** Insertion id -> node, over leaves (no children) only; the
     *  deterministic scan order for eviction and clear(). */
    std::map<std::uint64_t, Node *> leaves_;
    /** Prefix tokens each in-flight sequence has indexed (or
     *  attached); block-aligned until its prefix is complete. */
    std::unordered_map<std::uint64_t, std::size_t> inserted_;
    std::uint64_t cached_nodes_ = 0;
    std::size_t cached_tokens_ = 0;
    std::uint64_t next_node_id_ = 1;
    PrefixCacheStats stats_;
    obs::TraceRecorder *trace_ = nullptr;
};

} // namespace vqllm::serving
