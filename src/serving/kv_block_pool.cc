#include "serving/kv_block_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqllm::serving {

KvBlockPool::KvBlockPool(const KvBlockPoolConfig &cfg) : cfg_(cfg)
{
    vqllm_assert(cfg_.block_tokens > 0, "block_tokens must be positive");
    vqllm_assert(cfg_.bytes_per_token > 0,
                "bytes_per_token must be positive");
    total_blocks_ = cfg_.capacity_bytes / blockBytes();
}

BlockId
KvBlockPool::takeBlock()
{
    BlockId id;
    if (!free_ids_.empty()) {
        id = free_ids_.back();
        free_ids_.pop_back();
    } else {
        // Materialize a new physical id: the table only ever grows to
        // the peak concurrently-used block count, not totalBlocks().
        id = static_cast<BlockId>(block_refs_.size());
        block_refs_.push_back(0);
        block_fill_.push_back(0);
    }
    block_refs_[id] = 1;
    block_fill_[id] = 0;
    ++used_blocks_;
    ++stats_.block_allocs;
    stats_.peak_used_blocks =
        std::max(stats_.peak_used_blocks, used_blocks_);
    return id;
}

void
KvBlockPool::dropRef(BlockId block)
{
    vqllm_assert(block < block_refs_.size() && block_refs_[block] > 0,
                "dropRef on a block that is not live");
    if (--block_refs_[block] == 0) {
        stored_tokens_ -= block_fill_[block];
        block_fill_[block] = 0;
        free_ids_.push_back(block);
        --used_blocks_;
        ++stats_.block_frees;
    }
}

void
KvBlockPool::setFill(BlockId block, std::size_t fill)
{
    vqllm_assert(fill <= cfg_.block_tokens, "fill exceeds block size");
    stored_tokens_ += fill - block_fill_[block];
    block_fill_[block] = static_cast<std::uint32_t>(fill);
}

bool
KvBlockPool::ensureFree(std::uint64_t need)
{
    if (need > freeBlocks() && reclaimer_)
        reclaimer_(need - freeBlocks());
    return need <= freeBlocks();
}

std::uint64_t
KvBlockPool::availableBlocks() const
{
    std::uint64_t avail = freeBlocks();
    if (reclaimable_)
        avail += reclaimable_();
    return avail;
}

bool
KvBlockPool::allocSequence(std::uint64_t seq_id, std::size_t tokens)
{
    vqllm_assert(seqs_.find(seq_id) == nullptr,
                "sequence already resident");
    std::uint64_t need = blocksForTokens(tokens);
    if (!ensureFree(need)) {
        ++stats_.failed_allocs;
        // `shard` names the device whose table refused: always 0, the
        // widest device's table this pool is sized by.
        if (trace_)
            trace_->instant("kv_alloc_fail", "kv", 0, trace_->now(),
                            {{"seq", static_cast<double>(seq_id)},
                             {"tokens", static_cast<double>(tokens)},
                             {"shard", 0.0}});
        return false;
    }
    SeqEntry &e = seqs_.insert(seq_id);
    e.tokens = tokens;
    e.blocks.reserve(need);
    for (std::uint64_t i = 0; i < need; ++i) {
        BlockId b = takeBlock();
        e.blocks.push_back(b);
        setFill(b, std::min(cfg_.block_tokens,
                            tokens - static_cast<std::size_t>(i) *
                                         cfg_.block_tokens));
    }
    if (trace_)
        trace_->instant("kv_alloc", "kv", 0, trace_->now(),
                        {{"seq", static_cast<double>(seq_id)},
                         {"tokens", static_cast<double>(tokens)}});
    return true;
}

void
KvBlockPool::attachSequence(std::uint64_t seq_id,
                            const std::vector<BlockId> &blocks,
                            std::size_t tokens)
{
    vqllm_assert(seqs_.find(seq_id) == nullptr,
                "sequence already resident");
    vqllm_assert(blocksForTokens(tokens) == blocks.size(),
                "attached block list does not cover the tokens");
    std::size_t stored = 0;
    for (BlockId b : blocks) {
        vqllm_assert(b < block_refs_.size() && block_refs_[b] > 0,
                    "attaching a block that is not live");
        stored += block_fill_[b];
    }
    vqllm_assert(stored == tokens,
                "attached blocks do not store the claimed tokens");
    for (BlockId b : blocks)
        ++block_refs_[b];
    SeqEntry &e = seqs_.insert(seq_id);
    e.tokens = tokens;
    e.blocks = blocks;
}

bool
KvBlockPool::extendSequence(std::uint64_t seq_id, std::size_t tokens)
{
    SeqEntry *entry = seqs_.find(seq_id);
    vqllm_assert(entry != nullptr, "sequence not resident");
    SeqEntry &e = *entry;
    std::size_t new_tokens = e.tokens + tokens;
    std::size_t held = e.blocks.size();
    auto traceExtend = [&] {
        trace_->instant("kv_extend", "kv", 0, trace_->now(),
                        {{"seq", static_cast<double>(seq_id)},
                         {"tokens", static_cast<double>(tokens)}});
    };

    // In-tail append (the common decode step): the tokens fit in a
    // tail block only this sequence holds, so no block is taken or
    // forked and only the tail's fill grows.  The tail's fill is the
    // sequence's tokens past its full blocks, as every path below
    // leaves it.
    if (tokens > 0 && new_tokens <= held * cfg_.block_tokens &&
        block_refs_[e.blocks.back()] == 1) {
        e.tokens = new_tokens;
        block_fill_[e.blocks.back()] += static_cast<std::uint32_t>(tokens);
        stored_tokens_ += tokens;
        if (trace_)
            traceExtend();
        return true;
    }

    std::uint64_t need_total = blocksForTokens(new_tokens);

    // Writing into a shared tail block's slack would clobber the other
    // owners' view: privatize it first (copy-on-write fork).
    bool fork = !e.blocks.empty() &&
                e.tokens % cfg_.block_tokens != 0 &&
                block_refs_[e.blocks.back()] > 1;
    std::uint64_t fresh = (need_total - held) + (fork ? 1 : 0);
    if (fresh > 0 && !ensureFree(fresh)) {
        ++stats_.failed_allocs;
        if (trace_)
            trace_->instant("kv_extend_fail", "kv", 0, trace_->now(),
                            {{"seq", static_cast<double>(seq_id)},
                             {"tokens", static_cast<double>(tokens)},
                             {"shard", 0.0}});
        return false;
    }
    std::size_t first_changed = e.blocks.empty() ? 0 : held - 1;
    if (fork) {
        dropRef(e.blocks.back());
        e.blocks.back() = takeBlock();
        ++stats_.cow_forks;
    }
    while (e.blocks.size() < need_total)
        e.blocks.push_back(takeBlock());
    // Refresh fills from the (possibly forked) old tail onward.  A
    // shared *full* tail is untouched: its fill stays block_tokens.
    for (std::size_t i = first_changed; i < e.blocks.size(); ++i)
        setFill(e.blocks[i],
                std::min(cfg_.block_tokens,
                         new_tokens - i * cfg_.block_tokens));
    e.tokens = new_tokens;
    if (trace_) {
        if (fork)
            trace_->instant("cow_fork", "prefix", 0, trace_->now(),
                            {{"seq", static_cast<double>(seq_id)}});
        traceExtend();
    }
    return true;
}

std::size_t
KvBlockPool::extendableTokens(std::uint64_t seq_id) const
{
    const SeqEntry *entry = seqs_.find(seq_id);
    vqllm_assert(entry != nullptr, "sequence not resident");
    const SeqEntry &e = *entry;
    std::size_t slack =
        e.blocks.size() * cfg_.block_tokens - e.tokens;
    std::uint64_t avail = availableBlocks();
    if (slack > 0 && block_refs_[e.blocks.back()] > 1) {
        // The slack sits in a shared tail: using any of it costs one
        // available block for the COW fork first.
        if (avail == 0)
            return 0;
        return slack + static_cast<std::size_t>(avail - 1) *
                           cfg_.block_tokens;
    }
    return slack +
           static_cast<std::size_t>(avail) * cfg_.block_tokens;
}

void
KvBlockPool::freeSequence(std::uint64_t seq_id)
{
    const SeqEntry *e = seqs_.find(seq_id);
    if (e == nullptr)
        return;
    for (BlockId b : e->blocks)
        dropRef(b);
    if (trace_ && e->tokens > 0)
        trace_->instant("kv_free", "kv", 0, trace_->now(),
                        {{"seq", static_cast<double>(seq_id)},
                         {"tokens", static_cast<double>(e->tokens)}});
    seqs_.erase(seq_id);
}

const std::vector<BlockId> &
KvBlockPool::seqBlockIds(std::uint64_t seq_id) const
{
    const SeqEntry *e = seqs_.find(seq_id);
    vqllm_assert(e != nullptr, "sequence not resident");
    return e->blocks;
}

bool
KvBlockPool::allocCacheBlock(std::size_t fill_tokens, BlockId *out)
{
    vqllm_assert(fill_tokens > 0 && fill_tokens <= cfg_.block_tokens,
                "cache block fill must be within one block");
    // Deliberately no reclaimer here: the cache skips the insert when
    // the pool is full rather than evicting itself reentrantly.
    if (freeBlocks() == 0)
        return false;
    *out = takeBlock();
    setFill(*out, fill_tokens);
    return true;
}

void
KvBlockPool::addBlockRef(BlockId block)
{
    vqllm_assert(block < block_refs_.size() && block_refs_[block] > 0,
                "addBlockRef on a block that is not live");
    ++block_refs_[block];
}

void
KvBlockPool::releaseBlockRef(BlockId block)
{
    dropRef(block);
}

std::uint32_t
KvBlockPool::blockRefs(BlockId block) const
{
    return block < block_refs_.size() ? block_refs_[block] : 0;
}

std::uint64_t
KvBlockPool::sharedBlocks() const
{
    std::uint64_t shared = 0;
    for (std::uint32_t refs : block_refs_)
        shared += refs > 1 ? 1 : 0;
    return shared;
}

void
KvBlockPool::exportMetrics(obs::MetricsRegistry &registry,
                           const std::string &prefix) const
{
    registry.counter(prefix + ".block_allocs").add(stats_.block_allocs);
    registry.counter(prefix + ".block_frees").add(stats_.block_frees);
    registry.counter(prefix + ".failed_allocs")
        .add(stats_.failed_allocs);
    registry.counter(prefix + ".cow_forks").add(stats_.cow_forks);
    registry.gauge(prefix + ".total_blocks")
        .set(static_cast<double>(total_blocks_));
    registry.gauge(prefix + ".used_blocks")
        .set(static_cast<double>(used_blocks_));
    registry.gauge(prefix + ".shared_blocks")
        .set(static_cast<double>(sharedBlocks()));
    registry.gauge(prefix + ".peak_used_blocks")
        .set(static_cast<double>(stats_.peak_used_blocks));
    registry.gauge(prefix + ".peak_bytes")
        .set(static_cast<double>(peakBytes()));
    registry.gauge(prefix + ".capacity_bytes")
        .set(static_cast<double>(total_blocks_ * blockBytes()));
    registry.gauge(prefix + ".internal_fragmentation")
        .set(internalFragmentation());
}

double
KvBlockPool::internalFragmentation() const
{
    std::uint64_t slots = used_blocks_ * cfg_.block_tokens;
    if (slots == 0)
        return 0.0;
    return 1.0 - static_cast<double>(stored_tokens_) /
                     static_cast<double>(slots);
}

// ---------------------------------------------------------------------
// CodebookResidency

CodebookResidency::CodebookResidency(std::size_t slots) : slots_(slots)
{
    vqllm_assert(slots_ > 0, "residency cache needs at least one slot");
}

bool
CodebookResidency::resident(std::uint64_t group) const
{
    return resident_.find(group) != resident_.end();
}

void
CodebookResidency::exportMetrics(obs::MetricsRegistry &registry,
                                 const std::string &prefix) const
{
    registry.counter(prefix + ".hits").add(stats_.hits);
    registry.counter(prefix + ".misses").add(stats_.misses);
    registry.counter(prefix + ".evictions").add(stats_.evictions);
    registry.counter(prefix + ".overflow").add(stats_.overflow);
    registry.gauge(prefix + ".hit_rate").set(stats_.hitRate());
    registry.gauge(prefix + ".resident_groups")
        .set(static_cast<double>(resident_.size()));
    registry.gauge(prefix + ".slots")
        .set(static_cast<double>(slots_));
}

CodebookResidency::BatchResult
CodebookResidency::touchBatch(const std::vector<std::uint64_t> &groups)
{
    BatchResult out;
    // A slot is pinned while its stamp is the current batch, so the
    // next batch unpins every slot at once.
    ++batch_;

    // Deduplicate: one upload serves every sequence sharing the group.
    batch_groups_.assign(groups.begin(), groups.end());
    std::sort(batch_groups_.begin(), batch_groups_.end());
    batch_groups_.erase(
        std::unique(batch_groups_.begin(), batch_groups_.end()),
        batch_groups_.end());

    // Hits first: pinning every resident member of the batch before
    // any admission keeps the admissions below from evicting them
    // mid-iteration.  The misses keep their ascending order at the
    // front of the buffer.
    std::size_t missing = 0;
    for (std::uint64_t g : batch_groups_) {
        auto it = resident_.find(g);
        if (it == resident_.end()) {
            batch_groups_[missing++] = g;
            continue;
        }
        it->second.batch = batch_;
        ++it->second.freq;
        ++out.hits;
    }

    for (std::size_t m = 0; m < missing; ++m) {
        ++out.misses;
        if (resident_.size() >= slots_) {
            // Hit-aware LFU victim: min frequency among unpinned
            // residents; ties toward the smallest group id.
            auto victim = resident_.end();
            for (auto cand = resident_.begin(); cand != resident_.end();
                 ++cand) {
                if (cand->second.batch == batch_)
                    continue;
                if (victim == resident_.end() ||
                    cand->second.freq < victim->second.freq ||
                    (cand->second.freq == victim->second.freq &&
                     cand->first < victim->first))
                    victim = cand;
            }
            if (victim == resident_.end()) {
                // Whole cache pinned by this batch: the group cannot be
                // admitted and streams from HBM (capacity thrash).
                ++out.overflow;
                continue;
            }
            resident_.erase(victim);
            ++out.evictions;
        }
        resident_.emplace(batch_groups_[m], Slot{1, batch_});
    }

    stats_.hits += out.hits;
    stats_.misses += out.misses;
    stats_.evictions += out.evictions;
    stats_.overflow += out.overflow;
    return out;
}

} // namespace vqllm::serving
