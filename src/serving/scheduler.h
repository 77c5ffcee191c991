/**
 * @file
 * Policy-driven continuous-batching scheduler and iteration pricer.
 *
 * The scheduler owns the waiting/running queues and forms one
 * *iteration* at a time.  Queue order and preemption-victim selection
 * follow one policy order (serving/policy.h: FCFS, priority, SLO-aware
 * EDF), so every policy shares the same KV block accounting through one
 * KvBlockPool (one block table for every device under tensor
 * parallelism) and the same recompute-style preemption: a sequence
 * that loses its blocks re-queues and re-prefills its full context
 * later.
 *
 * Two batch-formation regimes:
 *  - **Unchunked** (chunk_tokens == 0): vLLM-style prefill-prioritized
 *    admission — an iteration is either a prefill batch under
 *    max_prefill_tokens or one decode step for every running sequence.
 *  - **Chunked prefill** (chunk_tokens > 0): every iteration decodes
 *    all fully-prefilled sequences AND processes up to chunk_tokens
 *    prompt tokens, sliced across partially-prefilled and newly
 *    admitted requests, so long prompts no longer stall running
 *    decodes for a whole prompt's worth of GEMMs.
 *
 * KV accounting convention (shared by both regimes): every scheduled
 * forward pass that emits a token also materializes that token's KV
 * slot, so after any iteration a fully-prefilled running sequence
 * satisfies pool.seqTokens(id) == contextTokens().  A (re)prefill
 * therefore allocates contextTokens()+1 slots — its final slice emits
 * one token (the first token of a fresh prefill, the next token of a
 * recompute) — and a decode step extends by exactly one.
 *
 * IterationPricer turns a formed iteration into simulated microseconds
 * through the decode-step model the end-to-end estimates use
 * (llm::DecodeStep, priced by llm::decodeLinearUs / decodeAttnUs, which
 * compile adaptive VQ kernels through the compiler::Engine facade and
 * price them with gpusim::estimateLatency).  Decode attention is priced per
 * context-length bucket — mirroring flash-decoding's homogeneous
 * sub-launches over a ragged batch — and prefill slices via
 * llm::estimateChunkedPrefillUs on the (slice, context) bucket.
 * Steady-state decode iterations repeat a handful of bucketed shapes,
 * and every price — VQ kernels and closed forms alike — is a hit in
 * the pricer's own memo tables, so a multi-minute simulation runs a
 * few hundred planner invocations and few cost-model evaluations.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "llm/model_config.h"
#include "llm/tensor_parallel.h"
#include "serving/kv_block_pool.h"
#include "serving/policy.h"
#include "serving/request.h"

namespace vqllm::compiler {
class Engine;
}

namespace vqllm::obs {
class TraceRecorder;
}

namespace vqllm::serving {

class PrefixCache;

/** Batch-formation limits. */
struct SchedulerConfig
{
    /** Maximum concurrently running (decoding or prefilling) sequences. */
    std::size_t max_batch = 64;
    /** Prompt-token budget of one unchunked prefill iteration.  A
     *  single prompt longer than the budget is still admitted alone. */
    std::size_t max_prefill_tokens = 4096;
    /** Chunked prefill: prompt-token budget mixed into *every*
     *  iteration alongside decode steps.  0 disables chunking and
     *  selects the unchunked either/or regime above. */
    std::size_t chunk_tokens = 0;
    /** Admission / eviction ordering. */
    PolicyKind policy = PolicyKind::FCFS;
};

/**
 * Forms per-iteration batches over the request queues.
 *
 * The waiting queue is kept in policy admission order (for FCFS that
 * is arrival order, so preempted sequences re-admit ahead of younger
 * requests); a preemption victim is the request the policy would admit
 * last among those that have not decoded in the current iteration.
 */
class Scheduler
{
  public:
    Scheduler(const SchedulerConfig &cfg, KvBlockPool &pool);

    /** One prefill slice scheduled in an iteration. */
    struct PrefillChunk
    {
        Request *req = nullptr;
        /** Prompt/context tokens processed by this slice. */
        std::size_t tokens = 0;
        /** KV tokens already resident before the slice (the history
         *  its attention spans). */
        std::size_t context = 0;
        /** True when the slice completes the (re)prefill; the request
         *  emits a token and becomes decode-eligible. */
        bool last = false;
    };

    /** One scheduled iteration.  Unchunked iterations hold prefill
     *  chunks or decode steps, never both; chunked iterations mix. */
    struct Iteration
    {
        /** Prefill slices processed this iteration. */
        std::vector<PrefillChunk> prefill;
        /** Requests decoding one token this iteration. */
        std::vector<Request *> decode;
        /** Preemptions triggered while forming the iteration. */
        std::size_t preempted = 0;

        bool
        empty() const
        {
            return prefill.empty() && decode.empty();
        }
    };

    /**
     * Enqueue an arrived request.  Requests whose full context
     * (prompt + max_new_tokens) can never fit in the pool are rejected
     * immediately (state -> Rejected) — admitting them would livelock
     * the preemption loop.
     */
    void submit(Request *r);

    /** Form the next iteration (empty when no work is schedulable). */
    Iteration next();

    /** Retire a finished request: release its KV blocks. */
    void retire(Request *r);

    /** @return true when no request is waiting or running. */
    bool
    idle() const
    {
        return waiting_.empty() && running_.empty();
    }

    std::size_t waitingCount() const { return waiting_.size(); }
    std::size_t runningCount() const { return running_.size(); }
    std::uint64_t rejectedCount() const { return rejected_; }
    const std::vector<Request *> &running() const { return running_; }
    const std::vector<Request *> &waiting() const { return waiting_; }

    /** Attach a trace recorder (nullptr = off, the default):
     *  preemptions and rejections record as instants at the
     *  recorder's simulated clock. */
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

    /** Attach a prefix cache (nullptr = off, the default): admission
     *  matches each prompt against cached prefixes, maps hits in as
     *  shared blocks, and prefills only the unmatched suffix
     *  (PrefillChunk::context starts at the matched tokens, so the
     *  pricer charges the suffix alone); completed slices feed the
     *  index via onPrefillAdvance. */
    void setPrefixCache(PrefixCache *cache) { prefix_cache_ = cache; }

  private:
    void admitImported();
    Iteration nextUnchunked();
    Iteration nextChunked();
    void decodeStep(Iteration &it);
    void prefillChunks(Iteration &it);
    /** Fill order_ with the running requests whose prefill_complete
     *  equals `prefilled`, in policy admission order. */
    void sortRunning(bool prefilled);
    /** Preempt the policy victim (see the class comment) into the
     *  waiting queue, counting it in `it`; @return the victim. */
    Request *preemptVictim(Iteration &it);
    void requeue(Request *r);

    SchedulerConfig cfg_;
    KvBlockPool &pool_;
    /** Waiting queue, kept in policy admission order (requeue()). */
    std::vector<Request *> waiting_;
    /** Running set (admission order; batch formation orders its own
     *  views with the total policy order, so this order is not
     *  load-bearing). */
    std::vector<Request *> running_;
    /** Reused per-step view of running_: the visiting order of
     *  decodeStep() and prefillChunks() (never both at once). */
    std::vector<Request *> order_;
    std::uint64_t rejected_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
    PrefixCache *prefix_cache_ = nullptr;
};

/**
 * Prices scheduler iterations in simulated microseconds on the
 * critical shard of a tensor-parallel deployment.
 *
 * A decode step is an llm::DecodeStep, the step formula
 * llm::estimateTensorParallel uses: the critical shard's
 * column/row-parallel linears (llm::decodeLinearUs) and head-sharded
 * attention per context bucket (llm::decodeAttnUs), the replicated
 * element-wise ops, and the two per-layer ring all-reduces
 * (llm::layerAllReduceUs).  Prefill chunks price the critical shard
 * through llm::estimateChunkedPrefillUs.  Degree 1 is a TP group of
 * one: unsharded shapes, no collectives.
 *
 * Every price is memoized here, whatever the scheme: linears per
 * batch, decode attention per (context bucket, count), the FP16
 * reference attention behind kvDequantUs() per (bucket, count),
 * prefill slices per bucket pair and element-wise ops per batch.  A VQ
 * price asks the engine (an O2-O4 compileBest ladder) only when its
 * memo slot first fills, so the engine's plan-cache counters see one
 * lookup per slot, not one per step; closed-form prices never reach
 * the engine.
 *
 * The engine may be shared across pricers (it is thread-safe); the
 * memo tables are not, so create one pricer per simulator.
 */
class IterationPricer
{
  public:
    /**
     * Busy-time decomposition of priced work, microseconds.  The four
     * categories partition every priced microsecond: summed over a run
     * they reproduce the simulator's busy time exactly (modulo
     * floating-point association).
     */
    struct Breakdown
    {
        /** Prefill-slice compute (chunked GEMMs + history attention). */
        double prefill_us = 0;
        /** Decode compute (linears + bucketed attention + element-wise
         *  ops; the critical shard under TP). */
        double decode_us = 0;
        /** Ring all-reduces of prefill slices and decode steps (0 at
         *  degree 1). */
        double comm_us = 0;
        /** Codebook-group upload penalties for residency misses. */
        double codebook_upload_us = 0;

        double
        total() const
        {
            return prefill_us + decode_us + comm_us + codebook_upload_us;
        }
    };

    /** Context-length bucket of attention and prefill memoization,
     *  tokens. */
    static constexpr std::size_t kSeqBucket = 256;

    /**
     * `eng` compiles the VQ kernels; model.heads must divide evenly
     * across tp.degree.  Weight scheme `scheme` prices the
     * decode linears; KV storage scheme `kv` prices decode attention
     * (FP16 KV prices flash decoding, INT4 the element-wise dequant
     * path, VQ4 / VQ2 compile fused dequant-attention kernels carrying
     * the KV VQConfig) and sizes the codebook-residency model.
     */
    IterationPricer(compiler::Engine &eng, const llm::LlamaConfig &model,
                    llm::QuantScheme scheme, llm::KvScheme kv,
                    const llm::TpConfig &tp);

    /** Full mixed iteration: chunked-prefill GEMM slices plus decode
     *  attention buckets plus (degree > 1) the per-layer collectives,
     *  priced as one serialized launch set. */
    double iterationUs(const Scheduler::Iteration &it);

    /** One prefill slice of `tokens` against `context` resident KV
     *  tokens (chunked-prefill GEMM + attention over the history; a
     *  whole-prompt prefill is the context == 0 case).  Compute only —
     *  iterationUs adds the slice's collectives. */
    double prefillChunkUs(std::size_t tokens, std::size_t context);

    /** One decode iteration over the batch's current contexts,
     *  including the decode step's collectives. */
    double decodeUs(const std::vector<Request *> &batch);

    /** Collective time of `rows` activation rows over every layer (two
     *  ring all-reduces per layer; 0 at degree 1): a prefill slice's
     *  collectives at its token count, a decode step's at its batch. */
    double commUs(std::size_t rows) const;

    /** Upload penalty for codebook-residency misses (0 for schemes
     *  without codebooks).  Under TP each device uploads only its head
     *  shard and the uploads overlap, so the penalty is the critical
     *  shard's share.  The returned penalty accrues to the codebook
     *  category of the breakdown accounting. */
    double codebookMissUs(std::size_t misses);

    /** Bytes of one codebook group (all layers' KV codebooks, summed
     *  over shards). */
    std::uint64_t codebookGroupBytes() const;

    /**
     * Cumulative signed decode-attention delta attributable to the KV
     * scheme so far: the priced attention cost minus what the same
     * bucketed shapes would cost with FP16 KV, summed over iterations
     * (critical shard, all layers).  Positive when codebook/dequant
     * work dominates, negative when reading fewer KV bytes outweighs
     * it (the common case — compressing the cache speeds attention
     * up).  Attribution only — the Breakdown categories already
     * contain this time inside decode_us.  Exactly 0 under FP16 KV.
     */
    double kvDequantUs() const { return kv_dequant_us_; }

    /** Cumulative busy-time breakdown priced so far. */
    const Breakdown &totals() const { return totals_; }

    /** Breakdown of the most recent iterationUs() call (codebook
     *  penalties priced after it via codebookMissUs included). */
    const Breakdown &lastBreakdown() const { return last_breakdown_; }

  private:
    /**
     * Prices memoized on a dense (row, col) key: a jagged table whose
     * rows and columns grow to the largest keys a run prices, so a hit
     * is two vector indexings and the table holds no stride beyond
     * what the run saw.  NaN marks an unpriced slot.
     */
    class PriceMemo
    {
      public:
        template <class Price>
        double
        get(std::size_t row, std::size_t col, Price &&price)
        {
            if (row >= rows_.size())
                rows_.resize(row + 1);
            std::vector<double> &slots = rows_[row];
            if (col >= slots.size())
                slots.resize(col + 1,
                             std::numeric_limits<double>::quiet_NaN());
            if (std::isnan(slots[col]))
                slots[col] = price();
            return slots[col];
        }

      private:
        std::vector<std::vector<double>> rows_;
    };

    compiler::Engine &eng_;
    const llm::LlamaConfig &model_;
    llm::QuantScheme scheme_;
    llm::KvScheme kv_scheme_;
    llm::TpConfig tp_;
    double kv_dequant_us_ = 0;
    Breakdown totals_;
    Breakdown last_breakdown_;

    // Price memos (see the class comment).  Bucket keys number context
    // buckets of kSeqBucket tokens.
    /** (context bucket, slice index) -> prefill slice. */
    PriceMemo prefill_memo_;
    /** (0, batch) -> element-wise ops of one layer. */
    PriceMemo elem_memo_;
    /** (0, batch) -> one layer's linears. */
    PriceMemo linear_memo_;
    /** (bucket, count) -> decode attention sub-launch. */
    PriceMemo attn_memo_;
    /** (bucket, count) -> FP16 attention, kvDequantUs()'s reference. */
    PriceMemo fp16_attn_memo_;

    /** Reused per-step bucketing buffers: sequence counts indexed by
     *  context bucket, and the step's occupied buckets. */
    std::vector<std::size_t> bucket_counts_;
    std::vector<std::size_t> buckets_;
};

} // namespace vqllm::serving
