/**
 * @file
 * Tensor-parallel (TP) serving estimation — the paper's stated future
 * work (Sec. VII-A: "large model serving like Llama-65B typically uses
 * multiple GPUs with Tensor Parallel strategy ... required adjustments
 * include final results gathering for Attention and partial results
 * concatenation/reduction for GeMM/GeMV, usually conducted via
 * communication library like NCCL").
 *
 * This extension implements that model: Megatron-style sharding
 * (column-parallel QKV/gate/up, row-parallel O/down, head-sharded
 * attention) with two ring all-reduces per layer per decode step, on
 * top of the per-scheme kernel estimates.
 */
#pragma once

#include "llm/e2e.h"

namespace vqllm::llm {

/** Multi-GPU interconnect and sharding configuration. */
struct TpConfig
{
    /** Tensor-parallel degree (GPUs). */
    int degree = 1;
    /** Per-direction link bandwidth of the all-reduce ring, GB/s. */
    double link_bw_gbps = 300.0; // NVLink-class
    /** Per-collective launch/sync latency, microseconds. */
    double collective_latency_us = 8.0;
};

/** TP end-to-end estimate. */
struct TpResult
{
    /** Decode latency over all generated tokens, microseconds. */
    double decode_us = 0;
    /** Communication share of one decode step. */
    double comm_fraction = 0;
    /** All-reduce time per decode step, microseconds. */
    double comm_us_per_step = 0;
    /** Per-GPU weight + KV memory, bytes. */
    std::uint64_t memory_per_gpu = 0;
};

/**
 * Estimate TP decode-phase serving.
 *
 * @param spec   per-GPU hardware model
 * @param model  model configuration
 * @param scheme quantization scheme
 * @param tp     TP degree and interconnect
 * @param cfg    serving scenario
 */
TpResult estimateTensorParallel(const gpusim::GpuSpec &spec,
                                const LlamaConfig &model,
                                QuantScheme scheme, const TpConfig &tp,
                                const E2EConfig &cfg = E2EConfig{});

/**
 * Ring all-reduce latency for a payload (2(G-1)/G traversals of the
 * slowest link plus the collective launch cost).
 */
double ringAllReduceUs(const TpConfig &tp, std::uint64_t bytes);

/**
 * Point-to-point transfer of `bytes` over the TpConfig link model: one
 * traversal of the link plus the collective launch cost.  Unlike the
 * all-reduces this is nonzero at degree 1 — it prices data movement
 * *between* replicas (a fleet prefill→decode KV handoff), not within a
 * TP group, so only the link fields of `tp` matter.  0 at bytes == 0.
 */
double linkTransferUs(const TpConfig &tp, std::uint64_t bytes);

/**
 * Both ring all-reduces of one Megatron layer (after Wo and after
 * W_down) over `rows` FP16 activation rows of width `hidden`.  The
 * per-layer collective cost every decode step and prefill chunk pays
 * under TP; 0 at degree 1.
 */
double layerAllReduceUs(const TpConfig &tp, std::size_t rows,
                        std::size_t hidden);

/**
 * Balanced split of `total` units across `degree` shards: the share
 * owned by shard `shard` (shards 0..total%degree-1 take the remainder,
 * so shard 0 is always a widest — critical-path — shard).
 */
std::size_t shardSplit(std::size_t total, std::size_t degree,
                       std::size_t shard);

/**
 * Shard `shard`'s slice of `bytes` laid out evenly over `kv_heads` KV
 * heads: ceil(bytes * shardSplit(kv_heads, degree, shard) / kv_heads).
 * What one TP device stores of a token's KV, or uploads of a codebook
 * group.
 */
std::uint64_t kvHeadShareBytes(std::uint64_t bytes, std::size_t kv_heads,
                               std::size_t degree, std::size_t shard);

/**
 * Chunked-prefill compute latency of the critical (widest) TP shard:
 * `slice_tokens` prompt tokens run against `context_tokens`
 * already-cached tokens.  The slice's sharded GeMMs see slice_tokens
 * rows; its head-sharded causal attention spans the cached context
 * plus the slice prefix.  No collectives — callers add
 * layerAllReduceUs per layer.  Degree 1 is the single-GPU slice.
 */
double estimateChunkedPrefillUs(const gpusim::GpuSpec &spec,
                                const LlamaConfig &model,
                                std::size_t slice_tokens,
                                std::size_t context_tokens,
                                const TpConfig &tp);

/**
 * Per-layer prices of one decode step on the critical TP shard, shard 0
 * (the widest under shardSplit), microseconds.  Degree 1 is the
 * single-GPU step: unsharded shapes and no collectives.  This is the
 * one decode-step formula: estimateE2E and estimateTensorParallel
 * (through estimateDecodeStep) and serving::IterationPricer::decodeUs
 * all sum a step here, so the analytic and serving models agree bit
 * for bit on a homogeneous batch.
 */
struct DecodeStep
{
    /** Sharded linears (decodeLinearUs). */
    double linear_us = 0;
    /** Head-sharded decode attention (decodeAttnUs). */
    double attn_us = 0;
    /** Element-wise ops, replicated on the full hidden width. */
    double elementwise_us = 0;
    /** The layer's two ring all-reduces (layerAllReduceUs). */
    double comm_us = 0;

    /** Compute of one layer of the step. */
    double
    computeUs() const
    {
        return linear_us + elementwise_us + attn_us;
    }

    /** The whole step over `layers` layers: compute, then the
     *  collectives. */
    double
    stepUs(double layers) const
    {
        return computeUs() * layers + comm_us * layers;
    }
};

/**
 * One layer's decode linears on the critical TP shard (Megatron
 * layout: column-parallel Wq/Wk/Wv/W_gate/W_up split the output
 * features, row-parallel Wo/W_down the reduced ones) for `batch` rows
 * under weight scheme `scheme`.  VQ schemes compile through `eng`;
 * degree 1 prices LlamaConfig::layerLinearShapes() unchanged.
 */
double decodeLinearUs(compiler::Engine &eng, const LlamaConfig &model,
                      QuantScheme scheme, const TpConfig &tp,
                      std::size_t batch);

/**
 * One layer's decode attention on the critical TP shard: `batch`
 * sequences of `seq_len` context tokens under KV storage scheme `kv`.
 * Query heads split by shardSplit; GQA KV heads split the same way,
 * and the MHA default (kv_heads == 0) is kept, so degree 1 prices
 * LlamaConfig::attnShape unchanged.  VQ KV compiles through `eng`.
 */
double decodeAttnUs(compiler::Engine &eng, const LlamaConfig &model,
                    KvScheme kv, const TpConfig &tp, std::size_t batch,
                    std::size_t seq_len);

/**
 * Price one decode step of `batch` sequences at `seq_len` context
 * tokens: linears under `scheme`, attention under the scheme's default
 * KV storage, compiled through the process-wide shared engine of
 * `spec` (compiler::Engine::shared).  estimateE2E (at degree 1) and
 * estimateTensorParallel take their representative step from here.
 */
DecodeStep estimateDecodeStep(const gpusim::GpuSpec &spec,
                              const LlamaConfig &model,
                              QuantScheme scheme, const TpConfig &tp,
                              std::size_t batch, std::size_t seq_len);

} // namespace vqllm::llm
