#include "llm/tensor_parallel.h"

#include "common/logging.h"
#include "compiler/engine.h"
#include "llm/ops.h"

namespace vqllm::llm {

namespace {

/** Per-layer linear weight shapes of the critical shard, shard 0
 *  (Megatron layout: column-parallel Wq/Wk/Wv/W_gate/W_up split the
 *  output features, row-parallel Wo/W_down split the reduced input
 *  features).  Degree 1 returns LlamaConfig::layerLinearShapes(). */
std::vector<std::pair<std::size_t, std::size_t>>
shardLinearShapes(const LlamaConfig &model, std::size_t degree)
{
    auto shapes = model.layerLinearShapes();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        bool row_parallel = (i == 3 || i == 6); // Wo, W_down
        if (row_parallel)
            shapes[i].second = shardSplit(shapes[i].second, degree, 0);
        else
            shapes[i].first = shardSplit(shapes[i].first, degree, 0);
    }
    return shapes;
}

/** Head-sharded decode-attention shape of the critical shard. */
engine::AttnShape
shardAttnShape(const LlamaConfig &model, std::size_t batch,
               std::size_t seq_len, std::size_t degree)
{
    // The shard must own at least one KV head: a zero split would read
    // back as AttnShape's kv_heads == 0 MHA sentinel and silently price
    // the shard with a full complement of KV heads.
    vqllm_assert(model.kvHeads() >= degree,
                 "TP degree exceeds the model's KV heads");
    engine::AttnShape shape = model.attnShape(batch, seq_len);
    shape.heads = shardSplit(shape.heads, degree, 0);
    if (shape.kv_heads != 0)
        shape.kv_heads = shardSplit(shape.kv_heads, degree, 0);
    return shape;
}

} // namespace

double
ringAllReduceUs(const TpConfig &tp, std::uint64_t bytes)
{
    if (tp.degree <= 1)
        return 0.0;
    double g = static_cast<double>(tp.degree);
    double traffic = 2.0 * (g - 1.0) / g * static_cast<double>(bytes);
    return traffic / (tp.link_bw_gbps * 1e9) * 1e6 +
           tp.collective_latency_us;
}

double
linkTransferUs(const TpConfig &tp, std::uint64_t bytes)
{
    if (bytes == 0)
        return 0.0;
    return static_cast<double>(bytes) / (tp.link_bw_gbps * 1e9) * 1e6 +
           tp.collective_latency_us;
}

double
layerAllReduceUs(const TpConfig &tp, std::size_t rows, std::size_t hidden)
{
    if (tp.degree <= 1)
        return 0.0;
    std::uint64_t activation_bytes =
        static_cast<std::uint64_t>(rows) * hidden * 2;
    return 2.0 * ringAllReduceUs(tp, activation_bytes);
}

std::size_t
shardSplit(std::size_t total, std::size_t degree, std::size_t shard)
{
    vqllm_assert(degree >= 1, "shard degree must be >= 1");
    vqllm_assert(shard < degree, "shard index out of range");
    return total / degree + (shard < total % degree ? 1 : 0);
}

std::uint64_t
kvHeadShareBytes(std::uint64_t bytes, std::size_t kv_heads,
                 std::size_t degree, std::size_t shard)
{
    const std::uint64_t heads = kv_heads;
    const std::uint64_t share = shardSplit(kv_heads, degree, shard);
    return (bytes * share + heads - 1) / heads;
}

double
estimateChunkedPrefillUs(const gpusim::GpuSpec &spec,
                         const LlamaConfig &model,
                         std::size_t slice_tokens,
                         std::size_t context_tokens, const TpConfig &tp)
{
    const std::size_t g = static_cast<std::size_t>(tp.degree);
    // Each of the T slice tokens attends over the C cached tokens plus
    // the slice prefix: ~C*T + T^2/2 key positions.
    double positions =
        static_cast<double>(slice_tokens) * context_tokens +
        0.5 * static_cast<double>(slice_tokens) * slice_tokens;
    return prefillLayersUs(spec, model, slice_tokens, positions,
                           shardSplit(model.heads, g, 0),
                           shardLinearShapes(model, g));
}

double
decodeLinearUs(compiler::Engine &eng, const LlamaConfig &model,
               QuantScheme scheme, const TpConfig &tp, std::size_t batch)
{
    double us = 0;
    for (auto [n, k] :
         shardLinearShapes(model, static_cast<std::size_t>(tp.degree)))
        us += schemeLinearUs(eng, scheme, engine::GemmShape{batch, n, k});
    return us;
}

double
decodeAttnUs(compiler::Engine &eng, const LlamaConfig &model, KvScheme kv,
             const TpConfig &tp, std::size_t batch, std::size_t seq_len)
{
    return kvSchemeAttentionUs(
        eng, kv,
        shardAttnShape(model, batch, seq_len,
                       static_cast<std::size_t>(tp.degree)));
}

DecodeStep
estimateDecodeStep(const gpusim::GpuSpec &spec, const LlamaConfig &model,
                   QuantScheme scheme, const TpConfig &tp,
                   std::size_t batch, std::size_t seq_len)
{
    compiler::Engine &eng = compiler::Engine::shared(spec);
    DecodeStep step;
    step.linear_us = decodeLinearUs(eng, model, scheme, tp, batch);
    step.attn_us = decodeAttnUs(eng, model, defaultKvScheme(scheme), tp,
                                batch, seq_len);
    step.elementwise_us =
        elementwiseLayerLatencyUs(spec, batch, model.hidden);
    // Two all-reduces per layer (after Wo and after W_down).
    step.comm_us = layerAllReduceUs(tp, batch, model.hidden);
    return step;
}

TpResult
estimateTensorParallel(const gpusim::GpuSpec &spec,
                       const LlamaConfig &model, QuantScheme scheme,
                       const TpConfig &tp, const E2EConfig &cfg)
{
    vqllm_assert(tp.degree >= 1, "TP degree must be >= 1");
    vqllm_assert(model.heads % tp.degree == 0,
                 "heads must divide evenly across TP ranks");
    const double layers = static_cast<double>(model.layers);
    const double gen_tokens = static_cast<double>(cfg.gen_tokens);
    TpResult result;

    const DecodeStep step =
        estimateDecodeStep(spec, model, scheme, tp, cfg.batch,
                           cfg.prompt_len + cfg.gen_tokens / 2);
    result.decode_us = step.stepUs(layers) * gen_tokens;
    result.comm_us_per_step = step.comm_us * layers;
    result.comm_fraction =
        result.comm_us_per_step * gen_tokens / result.decode_us;

    // ---- Per-GPU memory: weights and KV shard by the degree.
    result.memory_per_gpu =
        estimateFootprint(model, scheme, cfg).totalMemoryBytes() /
        static_cast<std::size_t>(tp.degree);
    return result;
}

} // namespace vqllm::llm