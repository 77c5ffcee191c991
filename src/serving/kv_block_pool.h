/**
 * @file
 * Paged VQ KV-cache block pool and codebook residency cache.
 *
 * The serving layer stores every sequence's quantized KV cache in
 * fixed-size token blocks (paged-attention style).  Fixed pages remove
 * external fragmentation entirely, so the pool's job is accounting: the
 * per-sequence block lists, capacity pressure (a failed extension is the
 * scheduler's preemption signal), the high-water mark, and internal
 * fragmentation (allocated-but-unused token slots in tail blocks).
 * Bytes per token come from the KV storage scheme
 * (llm::kvSchemeBytesPerToken), which is where VQ buys its capacity: a
 * CQ-2 cache packs ~7x the tokens of FP16 into the same HBM.
 *
 * Under tensor parallelism one pool serves every device.  Each device
 * stores its KV-head share of every cached token, so all devices hold
 * the same sequences and the same block structure; only a block's
 * bytes differ.  The pool is sized with the widest device's bytes per
 * token (device 0's, see llm::shardSplit), the device with the fewest
 * blocks, so a request every device could serve is exactly one this
 * table accepts.  Per-device bytes are blocks x that device's block
 * bytes (SimulatorCore reports them).
 *
 * Blocks carry identities and reference counts so the prefix cache can
 * map one physical block into many sequences (cross-request prefix
 * sharing): attachSequence() raises refcounts instead of consuming free
 * blocks, and an extension that would write into a shared tail block's
 * slack copy-on-write forks the tail first.  Block ids materialize
 * lazily up to the high-water mark — a pool sized for hundreds of
 * millions of blocks only ever tracks its peak concurrently-used few
 * thousand — and freed ids recycle LIFO, so id assignment is
 * deterministic.  Under capacity pressure the pool consults an optional
 * reclaimer (the prefix cache's eviction hook) before declaring an
 * allocation failure, and the paired reclaimable query folds those
 * evictable blocks into the capacity estimates (freeTokens /
 * extendableTokens) so slice sizing can rely on the reclaim that the
 * subsequent alloc will trigger.
 *
 * CodebookResidency models the GPU-resident codebook slots shared by a
 * mixed batch: each request's codebook group must be resident for the
 * iteration that touches it.  Eviction is hit-aware LFU — frequencies
 * accumulate across iterations, and groups referenced by the *current*
 * batch are pinned so they cannot evict each other mid-iteration (the
 * masking idiom of hit-aware LFU embedding caches).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_id_map.h"

namespace vqllm::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace vqllm::serving {

/** Physical block identifier within one pool (dense, reused LIFO). */
using BlockId = std::uint32_t;

/** Static parameters of the block pool. */
struct KvBlockPoolConfig
{
    /** HBM bytes reserved for the KV cache. */
    std::uint64_t capacity_bytes = 8ull << 30;
    /** Tokens per block (paged-attention page size). */
    std::size_t block_tokens = 16;
    /** KV bytes one token occupies across all layers under the active
     *  quantization scheme. */
    std::uint64_t bytes_per_token = 1;
};

/** Lifetime counters of the pool. */
struct KvBlockPoolStats
{
    std::uint64_t block_allocs = 0;
    std::uint64_t block_frees = 0;
    /** Allocation requests refused for lack of free blocks. */
    std::uint64_t failed_allocs = 0;
    /** Peak concurrently-used blocks. */
    std::uint64_t peak_used_blocks = 0;
    /** Copy-on-write forks: extensions that wrote into a shared tail
     *  block's slack and privatized it first. */
    std::uint64_t cow_forks = 0;
};

/**
 * Fixed-size paged allocator for quantized KV caches with block-level
 * reference counts.
 *
 * Sequences allocate whole blocks; a sequence holding t tokens owns
 * ceil(t / block_tokens) blocks.  Blocks may be shared across owners
 * (sequences and the prefix cache); a shared block is counted once in
 * the pool-level occupancy (usedBlocks / storedTokens) while every
 * owner's per-sequence view (seqTokens / seqBlocks) is unchanged.
 */
class KvBlockPool
{
  public:
    explicit KvBlockPool(const KvBlockPoolConfig &cfg);

    /** @return total blocks the capacity affords. */
    std::uint64_t totalBlocks() const { return total_blocks_; }

    /** @return currently free blocks (physical; excludes blocks the
     *  reclaimer could surrender — see availableBlocks()). */
    std::uint64_t
    freeBlocks() const
    {
        return total_blocks_ - used_blocks_;
    }

    std::uint64_t usedBlocks() const { return used_blocks_; }

    /** @return free blocks plus blocks the registered reclaimer could
     *  release right now (the capacity the next alloc can count on). */
    std::uint64_t availableBlocks() const;

    /** @return blocks needed to hold n tokens. */
    std::uint64_t
    blocksForTokens(std::size_t tokens) const
    {
        return (tokens + cfg_.block_tokens - 1) / cfg_.block_tokens;
    }

    /** @return true if a sequence of n tokens could ever fit. */
    bool
    canEverFit(std::size_t tokens) const
    {
        return blocksForTokens(tokens) <= total_blocks_;
    }

    /**
     * Reserve blocks for a new (or re-prefilling) sequence of n tokens.
     *
     * @return false (and change nothing) if free blocks are insufficient
     *         even after asking the reclaimer
     */
    bool allocSequence(std::uint64_t seq_id, std::size_t tokens);

    /**
     * Create a sequence that *shares* already-resident blocks (a prefix
     * cache hit): each listed block's refcount rises, no free block is
     * consumed, and the sequence starts holding exactly `tokens`, which
     * must equal the blocks' stored tokens (full blocks plus the tail
     * block's fill).  Writing past a shared tail copy-on-write forks it
     * (see extendSequence).
     */
    void attachSequence(std::uint64_t seq_id,
                        const std::vector<BlockId> &blocks,
                        std::size_t tokens);

    /**
     * Extend a resident sequence by n tokens, taking fresh blocks as
     * tokens cross block boundaries.  If the tail block is shared and
     * has slack, it is copy-on-write forked first (one extra fresh
     * block; counted in stats().cow_forks).
     *
     * @return false if blocks were needed and too few were free even
     *         after reclaim (the scheduler's preemption signal); the
     *         sequence is unchanged
     */
    bool extendSequence(std::uint64_t seq_id, std::size_t tokens);

    /**
     * Extend a resident sequence by one token (decode step).
     *
     * @return false if a block was needed and none was free; the
     *         sequence is unchanged
     */
    bool
    appendToken(std::uint64_t seq_id)
    {
        return extendSequence(seq_id, 1);
    }

    /** @return tokens a resident sequence could gain right now without
     *  failing: tail-block slack plus every available block (a shared
     *  tail's slack is only writable after a COW fork, which costs one
     *  of those blocks itself). */
    std::size_t extendableTokens(std::uint64_t seq_id) const;

    /** @return tokens a fresh sequence could take right now. */
    std::size_t
    freeTokens() const
    {
        return static_cast<std::size_t>(availableBlocks()) *
               cfg_.block_tokens;
    }

    /** Release all blocks of a sequence (completion or preemption).
     *  Shared blocks merely drop a reference. */
    void freeSequence(std::uint64_t seq_id);

    /** @return blocks held by a sequence (0 if not resident). */
    std::uint64_t
    seqBlocks(std::uint64_t seq_id) const
    {
        const SeqEntry *e = seqs_.find(seq_id);
        return e == nullptr ? 0 : e->blocks.size();
    }

    /** @return tokens stored by a sequence (0 if not resident). */
    std::size_t
    seqTokens(std::uint64_t seq_id) const
    {
        const SeqEntry *e = seqs_.find(seq_id);
        return e == nullptr ? 0 : e->tokens;
    }

    /** @return the sequence's physical block list (must be resident). */
    const std::vector<BlockId> &seqBlockIds(std::uint64_t seq_id) const;

    // ---- Cache-owned block interface (prefix cache) -----------------

    /**
     * Take one block owned by a cache rather than a sequence, storing
     * `fill_tokens` tokens (a partial prefix tail).  Unlike sequence
     * allocation this never consults the reclaimer — the cache skips
     * the insert instead of evicting itself.
     *
     * @return false when no block is free
     */
    bool allocCacheBlock(std::size_t fill_tokens, BlockId *out);

    /** Add a reference to a resident block (prefix-cache insertion of
     *  a writer's full block). */
    void addBlockRef(BlockId block);

    /** Drop a reference; at zero the block returns to the free list. */
    void releaseBlockRef(BlockId block);

    /** @return references currently held on a block (0 if free or
     *  never materialized). */
    std::uint32_t blockRefs(BlockId block) const;

    /** @return live physical blocks referenced by more than one
     *  owner. */
    std::uint64_t sharedBlocks() const;

    /** @return tokens stored across live blocks, shared blocks counted
     *  once — the pool-level view backing the simulator's accounting
     *  invariant (per-sequence seqTokens sums count shared tokens once
     *  per owner instead). */
    std::size_t storedTokens() const { return stored_tokens_; }

    /**
     * Register a reclaimer consulted under capacity pressure: before an
     * alloc/extend fails, the pool asks it to release `need` blocks
     * (the prefix cache evicts cold unpinned prefixes) and re-checks
     * once.  `reclaimable` reports how many blocks a reclaim could
     * free right now; it feeds availableBlocks() so capacity queries
     * and the eventual allocation agree.  Pass empty functions to
     * detach.
     */
    void
    setReclaimer(std::function<void(std::uint64_t)> reclaim,
                 std::function<std::uint64_t()> reclaimable)
    {
        reclaimer_ = std::move(reclaim);
        reclaimable_ = std::move(reclaimable);
    }

    /** @return peak concurrently-used KV bytes (high-water mark). */
    std::uint64_t
    peakBytes() const
    {
        return stats_.peak_used_blocks * blockBytes();
    }

    /** @return bytes of one block. */
    std::uint64_t
    blockBytes() const
    {
        return cfg_.block_tokens * cfg_.bytes_per_token;
    }

    /**
     * Internal fragmentation: fraction of allocated token slots not
     * holding a token (tail-block slack).  Fixed paging has no external
     * fragmentation, so this is the pool's only wasted space.
     */
    double internalFragmentation() const;

    const KvBlockPoolStats &stats() const { return stats_; }
    const KvBlockPoolConfig &config() const { return cfg_; }

    /** Attach a trace recorder (nullptr = off, the default): sequence
     *  alloc/extend/free, their capacity failures and copy-on-write
     *  forks record as instants at the recorder's simulated clock. */
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

    /** Publish the pool's counters and occupancy under
     *  `<prefix>.`-qualified names (e.g. `serving.kv`). */
    void exportMetrics(obs::MetricsRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct SeqEntry
    {
        std::size_t tokens = 0;
        std::vector<BlockId> blocks;
    };

    BlockId takeBlock();
    void dropRef(BlockId block);
    void setFill(BlockId block, std::size_t fill);
    bool ensureFree(std::uint64_t need);

    KvBlockPoolConfig cfg_;
    std::uint64_t total_blocks_ = 0;
    std::uint64_t used_blocks_ = 0;
    /** Sum of live blocks' fills (shared blocks counted once). */
    std::size_t stored_tokens_ = 0;
    /** Resident sequences by id.  Pointers into it stay valid only
     *  until the next sequence is created or freed. */
    FlatIdMap<SeqEntry> seqs_;
    /** Physical block table, materialized lazily up to the high-water
     *  mark; index = BlockId. */
    std::vector<std::uint32_t> block_refs_;
    std::vector<std::uint32_t> block_fill_;
    /** Freed ids, reused LIFO (deterministic). */
    std::vector<BlockId> free_ids_;
    std::function<void(std::uint64_t)> reclaimer_;
    std::function<std::uint64_t()> reclaimable_;
    KvBlockPoolStats stats_;
    obs::TraceRecorder *trace_ = nullptr;
};

/** Lifetime counters of the residency cache. */
struct CodebookResidencyStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Capacity misses: groups that could not be admitted because the
     *  current batch pinned every slot (the batch holds more distinct
     *  groups than the cache has slots).  A subset of misses — an
     *  overflowing group streams from HBM every iteration, which is
     *  thrash, not a cold start. */
    std::uint64_t overflow = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 1.0
                          : static_cast<double>(hits) / total;
    }
};

/**
 * Hit-aware LFU cache of GPU-resident codebook-group slots.
 *
 * touchBatch() processes one iteration's working set: every group in the
 * batch is pinned for the duration of the call, so admitting a missing
 * group can only evict groups *outside* the current batch.  Eviction
 * picks the minimum-frequency unpinned resident (ties broken toward the
 * smallest group id for determinism).
 */
class CodebookResidency
{
  public:
    /** @param slots resident codebook-group capacity (>= 1). */
    explicit CodebookResidency(std::size_t slots);

    /** Per-iteration outcome of touchBatch. */
    struct BatchResult
    {
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::size_t evictions = 0;
        /** Misses that could not be admitted (batch pinned all slots). */
        std::size_t overflow = 0;
    };

    /**
     * Reference one iteration's codebook groups (duplicates are
     * counted once — a group serves every sequence in the batch that
     * shares it).  Misses admit the group, evicting hit-aware-LFU
     * victims as needed.  If the batch holds more distinct groups than
     * slots, the overflow groups stay non-resident and count as misses
     * every iteration (they stream from HBM).
     */
    BatchResult touchBatch(const std::vector<std::uint64_t> &groups);

    bool resident(std::uint64_t group) const;
    std::size_t size() const { return resident_.size(); }
    std::size_t capacity() const { return slots_; }
    const CodebookResidencyStats &stats() const { return stats_; }

    /** Publish hit/miss/eviction/overflow counters and the hit rate
     *  under `<prefix>.`-qualified names. */
    void exportMetrics(obs::MetricsRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Slot
    {
        std::uint64_t freq = 0;
        /** Last touchBatch() call that referenced the group: the slot
         *  is pinned while this is the current batch_. */
        std::uint64_t batch = 0;
    };

    std::size_t slots_;
    std::unordered_map<std::uint64_t, Slot> resident_;
    /** touchBatch() calls so far. */
    std::uint64_t batch_ = 0;
    /** Reused buffer of the current batch's distinct groups. */
    std::vector<std::uint64_t> batch_groups_;
    CodebookResidencyStats stats_;
};

} // namespace vqllm::serving
