/**
 * @file
 * End-to-end LLM inference estimation (paper Sec. VII-E, Fig. 17).
 *
 * Combines the kernel-level latency models over a full decoder stack:
 * prefill (GeMM-dominated) plus `gen_tokens` decode steps (GeMV +
 * attention + element-wise ops), for FP16, element-wise-quantized
 * (qServe-style W4A8KV4) and VQ-LLM (4-bit and 2-bit) configurations,
 * and accounts GPU memory footprints.
 */
#pragma once

#include "gpusim/gpu_spec.h"
#include "llm/model_config.h"

namespace vqllm::compiler {
class Engine;
}

namespace vqllm::llm {

// QuantScheme and its scheme -> bytes mappings live in
// llm/model_config.h (shared with the serving-layer KV block pool).

/** Serving scenario of the end-to-end evaluation. */
struct E2EConfig
{
    std::size_t batch = 16;
    std::size_t prompt_len = 1024;
    std::size_t gen_tokens = 256;
};

/** End-to-end estimate. */
struct E2EResult
{
    /** Prefill latency, microseconds. */
    double prefill_us = 0;
    /** Total decode latency over all generated tokens, microseconds. */
    double decode_us = 0;
    /** Element-wise operator share of one decode step. */
    double elementwise_fraction = 0;
    /** Weight memory, bytes. */
    std::uint64_t weight_bytes = 0;
    /** KV-cache memory at the end of generation, bytes. */
    std::uint64_t kv_bytes = 0;

    double
    totalUs() const
    {
        return prefill_us + decode_us;
    }

    std::uint64_t
    totalMemoryBytes() const
    {
        return weight_bytes + kv_bytes;
    }
};

/**
 * Estimate an end-to-end generation run.
 *
 * The decode step is the tensor-parallel step at degree 1
 * (llm::estimateDecodeStep in llm/tensor_parallel.h).
 *
 * @param spec   target GPU
 * @param model  model configuration
 * @param scheme quantization scheme
 * @param cfg    serving scenario
 */
E2EResult estimateE2E(const gpusim::GpuSpec &spec,
                      const LlamaConfig &model, QuantScheme scheme,
                      const E2EConfig &cfg = E2EConfig{});

/**
 * The memory fields of estimateE2E (weight_bytes and kv_bytes; the
 * latencies stay 0): the decoder weights under `scheme`, and the KV
 * cache of the whole batch at the end of generation under the scheme's
 * default KV storage.  estimateTensorParallel shards this footprint.
 */
E2EResult estimateFootprint(const LlamaConfig &model, QuantScheme scheme,
                            const E2EConfig &cfg = E2EConfig{});

/**
 * Shared prefill-layer pricing over explicit linear shapes and a head
 * count: FP16 GeMMs over `rows` tokens per layer plus causal attention
 * over `attn_positions` key positions, scaled to all layers.
 * GeMM-dominated: weight quantization barely helps the compute-bound
 * prefill, so every scheme prices its GeMMs with the FP16 model (the
 * paper leaves cutlass GeMM unmodified, Sec. VII-D).  estimateE2E's
 * whole-prompt prefill and llm::estimateChunkedPrefillUs (which passes
 * one TP shard's geometry) both price through here, so the estimates
 * cannot drift apart.
 */
double prefillLayersUs(
    const gpusim::GpuSpec &spec, const LlamaConfig &model,
    std::size_t rows, double attn_positions, std::size_t heads,
    const std::vector<std::pair<std::size_t, std::size_t>> &shapes);

/**
 * Latency of one decode-phase linear layer under a scheme (best
 * adaptive VQ version for the VQ schemes).
 *
 * VQ schemes compile through `eng` — the O2..O4 ladder rungs resolve
 * via Engine::compileBest, so a repeated shape is a plan-cache hit.
 * FP16/EWQ baselines price closed-form.
 */
double schemeLinearUs(compiler::Engine &eng, QuantScheme scheme,
                      const engine::GemmShape &shape);

/**
 * Latency of one decode-attention kernel under a KV storage scheme:
 * FP16 KV prices the closed-form flash-decoding model, INT4 KV the
 * element-wise dequant model, and the VQ schemes compile a fused
 * dequant-attention kernel through `eng` carrying the KV `VQConfig`
 * (a repeated shape is a plan-cache hit).  A weight scheme's own KV
 * storage is llm::defaultKvScheme(scheme).
 */
double kvSchemeAttentionUs(compiler::Engine &eng, KvScheme kv,
                           const engine::AttnShape &shape);

} // namespace vqllm::llm
