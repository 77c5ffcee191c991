#include "serving/prefix_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqllm::serving {

PrefixCache::PrefixCache(KvBlockPool &pool, std::uint64_t capacity_blocks)
    : pool_(pool), capacity_blocks_(capacity_blocks)
{
    pool_.setReclaimer(
        [this](std::uint64_t need) { reclaim(need); },
        [this] { return evictableBlocks(); });
}

PrefixCache::~PrefixCache()
{
    clear();
    pool_.setReclaimer({}, {});
}

std::uint64_t
PrefixCache::chainHash(std::uint64_t parent, std::int64_t group,
                       std::size_t index, std::size_t tokens)
{
    // FNV-1a over the chain-defining tuple.  group+1 keeps group 0
    // distinct from the zero byte-pattern of the root parent.
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
    // Hash 0 is the reserved root parent.
    return h == 0 ? 1 : h;
}

std::uint64_t
PrefixCache::nextKey(Node &parent, std::int64_t group, std::size_t index)
{
    if (parent.next == 0)
        parent.next = chainHash(parent.hash, group, index,
                                pool_.config().block_tokens);
    return parent.next;
}

PrefixCache::Match
PrefixCache::match(const Request &r)
{
    Match m;
    if (r.prefix_group < 0 || r.prefix_tokens == 0 || r.prompt_len < 2)
        return m;
    ++stats_.lookups;
    const std::size_t bt = pool_.config().block_tokens;
    // Leave at least one prompt token to prefill: attention needs a
    // query, and a zero-token admission could not take a slice.
    const std::size_t cap =
        std::min(r.prefix_tokens, r.prompt_len - 1);
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
        std::uint64_t h =
            chainHash(parent == nullptr ? 0 : parent->hash,
                      r.prefix_group, i, partial);
        auto it = nodes_.find(h);
        if (it != nodes_.end()) {
            m.node_hashes.push_back(h);
            m.tokens = r.prefix_tokens;
        }
    }
    return m;
}

void
PrefixCache::attach(const Request &r, const Match &m)
{
    vqllm_assert(m.tokens > 0 && !m.node_hashes.empty(),
                "attach needs a non-empty match");
    std::vector<BlockId> blocks;
    blocks.reserve(m.node_hashes.size());
    for (std::uint64_t h : m.node_hashes) {
        Node &n = nodes_.at(h);
        ++n.freq;
        blocks.push_back(n.block);
    }
    pool_.attachSequence(r.id, blocks, m.tokens);
    // The matched prefix is already indexed for this sequence.
    inserted_[r.id] = {m.tokens, m.node_hashes.back()};
    ++stats_.hits;
    stats_.matched_tokens += m.tokens;
    if (trace_)
        trace_->instant("prefix_hit", "prefix", 0, trace_->now(),
                        {{"seq", static_cast<double>(r.id)},
                         {"tokens", static_cast<double>(m.tokens)}});
}

void
PrefixCache::rollbackAttach(const Request &r, const Match &m)
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
PrefixCache::onPrefillAdvance(const Request &r)
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
    // Resume after the last indexed block (`done.tokens` is always
    // block-aligned: a partial insert completes the prefix and
    // short-circuits above).  Its node memoizes the next key; with no
    // node (the root, or a node evicted since) the key is hashed, and
    // insertNode skips an orphan.
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

PrefixCache::Node *
PrefixCache::insertNode(const Request &r, std::size_t index,
                        std::uint64_t hash, std::uint64_t parent,
                        std::size_t tokens, bool partial)
{
    auto found = nodes_.find(hash);
    if (found != nodes_.end())
        return &found->second; // another in-flight request indexed it
    if (parent != 0 && nodes_.count(parent) == 0) {
        // Parent evicted mid-prefill: keep the forest rooted.
        ++stats_.skipped_inserts;
        return nullptr;
    }
    // The parent is never the capacity victim: it can be an unpinned
    // leaf (its writer retired; this writer holds its own copy of that
    // block), and the new node must hang off it.
    if (capacity_blocks_ > 0 &&
        nodes_.size() >= capacity_blocks_ &&
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
        // The tail is not block-aligned, so the writer's own tail
        // block keeps growing past it: store the partial prefix in a
        // cache-owned block instead.
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
    Node &node = nodes_.emplace(hash, std::move(n)).first->second;
    leaves_.emplace(node.id, &node);
    ++stats_.inserted_nodes;
    return &node;
}

bool
PrefixCache::evictOne(bool reclaiming, std::uint64_t keep)
{
    // Hit-aware LFU with masked pins: candidates are leaves whose
    // block the cache alone references (refcount 1 — running sequences
    // pin their prefixes); victim is min (freq, id), and the
    // ascending-id scan makes the oldest insertion win ties.
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
PrefixCache::eraseNode(std::uint64_t hash)
{
    auto it = nodes_.find(hash);
    vqllm_assert(it != nodes_.end(), "erasing an unknown prefix node");
    Node &n = it->second;
    vqllm_assert(n.children == 0, "erasing a prefix node with children");
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

void
PrefixCache::onRelease(std::uint64_t seq_id)
{
    inserted_.erase(seq_id);
}

void
PrefixCache::reclaim(std::uint64_t need_blocks)
{
    for (std::uint64_t freed = 0; freed < need_blocks;) {
        if (!evictOne(true))
            return;
        ++freed;
    }
}

std::uint64_t
PrefixCache::evictableBlocks() const
{
    std::uint64_t count = 0;
    for (const auto &[id, n] : leaves_)
        if (pool_.blockRefs(n->block) == 1)
            ++count;
    return count;
}

void
PrefixCache::clear()
{
    // Children always carry larger ids than their parents, so the
    // highest-id node is a leaf: this is the descending-id sweep over
    // every node.
    while (!leaves_.empty())
        eraseNode(leaves_.rbegin()->second->hash);
    inserted_.clear();
    cached_tokens_ = 0;
}

void
PrefixCache::exportMetrics(obs::MetricsRegistry &registry,
                           const std::string &prefix) const
{
    registry.counter(prefix + ".lookups").add(stats_.lookups);
    registry.counter(prefix + ".hits").add(stats_.hits);
    registry.counter(prefix + ".matched_tokens")
        .add(stats_.matched_tokens);
    registry.counter(prefix + ".inserted_nodes")
        .add(stats_.inserted_nodes);
    registry.counter(prefix + ".evicted_nodes")
        .add(stats_.evicted_nodes);
    registry.counter(prefix + ".reclaimed_blocks")
        .add(stats_.reclaimed_blocks);
    registry.counter(prefix + ".skipped_inserts")
        .add(stats_.skipped_inserts);
    registry.counter(prefix + ".rollbacks").add(stats_.rollbacks);
    registry.gauge(prefix + ".cached_blocks")
        .set(static_cast<double>(cachedBlocks()));
    registry.gauge(prefix + ".cached_tokens")
        .set(static_cast<double>(cachedTokens()));
}

} // namespace vqllm::serving
