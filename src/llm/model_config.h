/**
 * @file
 * LLM model configurations (Llama family) used by the end-to-end
 * evaluation (paper Sec. VII-A/E).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/op_desc.h"

namespace vqllm::llm {

/** Static description of a Llama-style decoder-only transformer. */
struct LlamaConfig
{
    std::string name;
    std::size_t hidden = 4096;
    std::size_t heads = 32;
    std::size_t head_dim = 128;
    std::size_t layers = 32;
    std::size_t intermediate = 11008;
    std::size_t vocab = 32000;
    /** KV heads (grouped-query attention); 0 = MHA. */
    std::size_t kv_heads = 0;

    /** @return effective KV heads. */
    std::size_t
    kvHeads() const
    {
        return kv_heads == 0 ? heads : kv_heads;
    }

    /** Per-layer linear layers as (n=out, k=in) weight shapes. */
    std::vector<std::pair<std::size_t, std::size_t>>
    layerLinearShapes() const
    {
        return {
            {hidden, hidden},       // Wq
            {hidden, hidden},       // Wk
            {hidden, hidden},       // Wv
            {hidden, hidden},       // Wo
            {intermediate, hidden}, // W_gate
            {intermediate, hidden}, // W_up
            {hidden, intermediate}, // W_down
        };
    }

    /** @return total weight parameters in the decoder stack. */
    std::uint64_t
    decoderParams() const
    {
        std::uint64_t per_layer = 0;
        for (auto [n, k] : layerLinearShapes())
            per_layer += static_cast<std::uint64_t>(n) * k;
        return per_layer * layers;
    }

    /** @return KV-cache bytes for a batch at a sequence length (FP16). */
    std::uint64_t
    kvCacheBytesFp16(std::size_t batch, std::size_t seq_len) const
    {
        return 2ull * batch * layers * kvHeads() * head_dim * seq_len *
               2;
    }

    /** @return attention shape for a decode step. */
    engine::AttnShape
    attnShape(std::size_t batch, std::size_t seq_len) const
    {
        return {batch, heads, seq_len, head_dim, kv_heads};
    }
};

/** Quantization scheme of an end-to-end run. */
enum class QuantScheme {
    FP16,   ///< no quantization
    EWQ4,   ///< qServe-style W4A8KV4 element-wise quantization
    VQ4,    ///< VQ-LLM 4-bit: QuiP#-4 weights + CQ-4 KV cache
    VQ2,    ///< VQ-LLM 2-bit: GPTVQ-2 weights + CQ-2 KV cache
};

/** All schemes in evaluation order (paper Fig. 17). */
inline constexpr QuantScheme kAllQuantSchemes[] = {
    QuantScheme::FP16,
    QuantScheme::EWQ4,
    QuantScheme::VQ4,
    QuantScheme::VQ2,
};

/**
 * Storage scheme of the KV cache, independent of the weight scheme.
 *
 * Historically the KV format was implied by the weight `QuantScheme`
 * (FP16 weights -> FP16 KV, qServe -> int4 KV, VQ-LLM -> CQ KV).
 * `KvScheme` makes that a first-class axis: any weight scheme can be
 * served with any KV format, e.g. FP16 weights + CQ-4 KV to trade a
 * little attention dequant for 3.8x KV-cache capacity.
 */
enum class KvScheme {
    FP16, ///< uncompressed half-precision KV
    INT4, ///< element-wise 4-bit KV with per-group scales (qServe-style)
    VQ4,  ///< CQ-4 vector-quantized KV (VQ<2,8,1>, 4 bits/element)
    VQ2,  ///< CQ-2 vector-quantized KV (VQ<4,8,1>, 2 bits/element)
};

/** All KV schemes in sweep order. */
inline constexpr KvScheme kAllKvSchemes[] = {
    KvScheme::FP16,
    KvScheme::INT4,
    KvScheme::VQ4,
    KvScheme::VQ2,
};

/** @return printable scheme name. */
const char *quantSchemeName(QuantScheme scheme);

/** @return printable KV-scheme name ("FP16", "INT4", "VQ4", "VQ2"). */
const char *kvSchemeName(KvScheme scheme);

/** @return lowercase CLI/JSON token ("fp16", "int4", "vq4", "vq2"). */
const char *kvSchemeToken(KvScheme scheme);

/**
 * Parse a KV scheme from a CLI-style token ("fp16", "int4", "vq4",
 * "vq2").
 *
 * @return true and sets *out on success; false on unknown token.
 */
bool parseKvScheme(const std::string &token, KvScheme *out);

/** KV scheme a weight scheme implies (FP16 -> FP16, EWQ4 -> INT4,
 *  VQ4 -> VQ4, VQ2 -> VQ2): the analytic models' KV storage, and a
 *  serving run's when serving::SimulatorConfig::kv_scheme is unset. */
KvScheme defaultKvScheme(QuantScheme scheme);

/** KV codebook configuration of a VQ KV scheme (CQ-2 for VQ2, CQ-4
 *  otherwise — the 4-bit config doubles as a placeholder for
 *  histogram-free call sites, mirroring schemeVqConfigs). */
vq::VQConfig kvSchemeVqConfig(KvScheme scheme);

/**
 * Parse a scheme from a CLI-style token ("fp16", "ewq4", "vq4", "vq2").
 *
 * @return true and sets *out on success; false on unknown token.
 */
bool parseQuantScheme(const std::string &token, QuantScheme *out);

/** Weight/KV VQ configurations of a scheme as (weights, kv). The VQ
 *  members are meaningful for VQ4/VQ2 only; FP16/EWQ4 return the 4-bit
 *  configs as placeholders for histogram-free call sites. */
std::pair<vq::VQConfig, vq::VQConfig> schemeVqConfigs(QuantScheme scheme);

/** Weight-memory bytes per model parameter under a scheme (FP16 = 2;
 *  element-wise 4-bit adds per-group scale overhead; VQ uses the
 *  configured compression ratio). */
double schemeWeightBytesPerParam(QuantScheme scheme);

/** KV-cache bytes under a KV scheme relative to FP16 (1.0 for FP16;
 *  packed indices plus codebook/scale overhead for the quantized
 *  schemes). */
double kvSchemeScale(KvScheme scheme);

/** KV-cache bytes one cached token occupies across the whole decoder
 *  stack (all layers, K and V) under a KV scheme. */
std::uint64_t kvSchemeBytesPerToken(const LlamaConfig &model,
                                    KvScheme scheme);

/** Packed byte footprint of `elements` FP16 values.  Single source of
 *  truth for the KV traffic math in the kernel estimators. */
std::uint64_t kvPackedBytesFp16(std::uint64_t elements);

/** Packed byte footprint of `elements` values quantized element-wise
 *  to `bits` bits with one FP32 scale per `group_size`-element group
 *  (qServe-style int KV metadata). */
std::uint64_t kvPackedBytesInt(std::uint64_t elements, std::size_t bits,
                               std::size_t group_size);

/** @return the Llama-7B configuration. */
const LlamaConfig &llama7b();

/** @return the Llama-65B configuration. */
const LlamaConfig &llama65b();

/** @return a Llama-2-70B-style configuration (GQA with 8 KV heads). */
const LlamaConfig &llama70b();

} // namespace vqllm::llm
