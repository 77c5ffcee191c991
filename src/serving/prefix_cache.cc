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

PrefixCache::Node *
PrefixCache::findChild(Node *parent, std::int64_t group,
                       std::size_t tokens)
{
    Node *n = nullptr;
    if (parent != nullptr) {
        n = parent->child.get();
    } else {
        auto it = roots_.find(group);
        if (it != roots_.end())
            n = it->second.get();
    }
    while (n != nullptr && n->tokens != tokens)
        n = n->sibling.get();
    return n;
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
    while (m.tokens + bt <= cap) {
        Node *n = findChild(parent, r.prefix_group, bt);
        if (n == nullptr)
            break;
        m.nodes.push_back(n);
        m.tokens += bt;
        parent = n;
    }
    const std::size_t partial = r.prefix_tokens % bt;
    if (partial > 0 && m.tokens == r.prefix_tokens - partial &&
        r.prefix_tokens <= cap) {
        if (Node *n = findChild(parent, r.prefix_group, partial)) {
            m.nodes.push_back(n);
            m.tokens = r.prefix_tokens;
        }
    }
    return m;
}

void
PrefixCache::attach(const Request &r, const Match &m)
{
    vqllm_assert(m.tokens > 0 && !m.nodes.empty(),
                "attach needs a non-empty match");
    std::vector<BlockId> blocks;
    blocks.reserve(m.nodes.size());
    for (Node *n : m.nodes) {
        ++n->freq;
        blocks.push_back(n->block);
    }
    pool_.attachSequence(r.id, blocks, m.tokens);
    // The matched prefix is already indexed for this sequence.
    inserted_[r.id] = m.tokens;
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
    for (Node *n : m.nodes)
        --n->freq;
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
    const std::size_t done = prog == inserted_.end() ? 0 : prog->second;
    if (written <= done)
        return;
    // Resume under the last indexed block (`done` is always
    // block-aligned: a partial insert completes the prefix and
    // short-circuits above), walking the chain down to it.  If a node
    // on the way was evicted since, the next insert is an orphan and is
    // skipped, which keeps the forest rooted; a node another writer
    // re-inserted is found again.
    Node *parent = nullptr;
    bool rooted = true;
    for (std::size_t d = 0; rooted && d < done / bt; ++d) {
        parent = findChild(parent, r.prefix_group, bt);
        rooted = parent != nullptr;
    }
    // Full blocks, then the partial tail once the whole prefix is
    // written.
    const std::size_t partial = r.prefix_tokens % bt;
    std::size_t indexed = done;
    for (;;) {
        std::size_t tokens;
        if (indexed + bt <= written)
            tokens = bt;
        else if (partial > 0 && written == r.prefix_tokens &&
                 indexed == r.prefix_tokens - partial)
            tokens = partial;
        else
            break;
        if (!rooted) {
            ++stats_.skipped_inserts;
            break;
        }
        parent = insertNode(r, indexed / bt, parent, tokens);
        if (parent == nullptr)
            break;
        indexed += tokens;
    }
    inserted_[r.id] = indexed;
}

PrefixCache::Node *
PrefixCache::insertNode(const Request &r, std::size_t index, Node *parent,
                        std::size_t tokens)
{
    if (Node *found = findChild(parent, r.prefix_group, tokens))
        return found; // another in-flight request indexed it
    // The parent is never the capacity victim: it can be an unpinned
    // leaf (its writer retired; this writer holds its own copy of that
    // block), and the new node must hang off it.
    if (capacity_blocks_ > 0 && cached_nodes_ >= capacity_blocks_ &&
        !evictOne(false, parent)) {
        ++stats_.skipped_inserts;
        return nullptr;
    }
    auto n = std::make_unique<Node>();
    n->parent = parent;
    n->group = r.prefix_group;
    n->tokens = static_cast<std::uint32_t>(tokens);
    n->freq = 1;
    if (tokens < pool_.config().block_tokens) {
        // The tail is not block-aligned, so the writer's own tail
        // block keeps growing past it: store the partial prefix in a
        // cache-owned block instead.
        if (!pool_.allocCacheBlock(tokens, &n->block)) {
            ++stats_.skipped_inserts;
            return nullptr;
        }
    } else {
        n->block = pool_.seqBlockIds(r.id)[index];
        pool_.addBlockRef(n->block);
    }
    n->id = next_node_id_++;
    // Link last: the capacity eviction above may have emptied (and
    // dropped) this group's root list.
    std::unique_ptr<Node> &head =
        parent != nullptr ? parent->child : roots_[r.prefix_group];
    if (parent != nullptr && head == nullptr)
        leaves_.erase(parent->id);
    n->sibling = std::move(head);
    head = std::move(n);
    ++cached_nodes_;
    cached_tokens_ += tokens;
    leaves_.emplace(head->id, head.get());
    ++stats_.inserted_nodes;
    return head.get();
}

bool
PrefixCache::evictOne(bool reclaiming, const Node *keep)
{
    // Hit-aware LFU with masked pins: candidates are leaves whose
    // block the cache alone references (refcount 1 — running sequences
    // pin their prefixes); victim is min (freq, id), and the
    // ascending-id scan makes the oldest insertion win ties.
    Node *victim = nullptr;
    for (const auto &[id, n] : leaves_) {
        if (n == keep || pool_.blockRefs(n->block) > 1)
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
    eraseNode(victim);
    ++stats_.evicted_nodes;
    if (reclaiming)
        ++stats_.reclaimed_blocks;
    return true;
}

void
PrefixCache::eraseNode(Node *n)
{
    vqllm_assert(n->child == nullptr,
                 "erasing a prefix node with children");
    pool_.releaseBlockRef(n->block);
    cached_tokens_ -= n->tokens;
    --cached_nodes_;
    leaves_.erase(n->id);
    Node *parent = n->parent;
    auto roots = parent != nullptr ? roots_.end() : roots_.find(n->group);
    std::unique_ptr<Node> *link =
        parent != nullptr ? &parent->child : &roots->second;
    while (link->get() != n)
        link = &(*link)->sibling;
    *link = std::move(n->sibling); // destroys n
    if (parent == nullptr) {
        if (roots->second == nullptr)
            roots_.erase(roots);
    } else if (parent->child == nullptr) {
        leaves_.emplace(parent->id, parent);
    }
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
        eraseNode(leaves_.rbegin()->second);
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
