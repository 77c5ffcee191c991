#include "llm/e2e.h"

#include <map>

#include "common/logging.h"
#include "compiler/engine.h"
#include "kernels/ewq_kernels.h"
#include "kernels/fp16_kernels.h"
#include "kernels/vq_kernels.h"
#include "llm/tensor_parallel.h"

namespace vqllm::llm {

using engine::GemmShape;
using engine::OpKind;
using engine::OptLevel;

namespace {

/** Ladder rungs the adaptive VQ selection compiles (paper Tbl. IV's
 *  upper half; the best rung wins per shape). */
const std::vector<OptLevel> kAdaptiveLevels = {OptLevel::O2,
                                               OptLevel::O3,
                                               OptLevel::O4};

/**
 * Stand-in offline profile per VQ config (no quantized tensor at
 * paper scale): a memoized synthetic Zipf histogram, which derives its
 * frequency order and content digest once when built.  The table is
 * built eagerly for every VQ scheme's weight and KV configs on first
 * use (magic-static init) and is immutable afterwards, so the serving
 * hot path — every decode iteration of every parallel simulation
 * prices through here — reads it without taking any lock.
 */
const vq::AccessHistogram &
configHistogram(const vq::VQConfig &cfg)
{
    static const std::map<std::string, vq::AccessHistogram> memo = [] {
        std::map<std::string, vq::AccessHistogram> table;
        for (auto scheme : {QuantScheme::VQ4, QuantScheme::VQ2}) {
            auto [weight_cfg, kv_cfg] = schemeVqConfigs(scheme);
            for (const auto &c : {weight_cfg, kv_cfg})
                table.emplace(c.name,
                              vq::syntheticZipfHistogram(c.storedEntries()));
        }
        return table;
    }();
    auto it = memo.find(cfg.name);
    vqllm_assert(it != memo.end(),
                 "no offline profile for VQ config ", cfg.name);
    return it->second;
}

} // namespace

double
prefillLayersUs(const gpusim::GpuSpec &spec, const LlamaConfig &model,
                std::size_t rows, double attn_positions,
                std::size_t heads,
                const std::vector<std::pair<std::size_t, std::size_t>>
                    &shapes)
{
    double layer_us = 0;
    for (auto [n, k] : shapes) {
        GemmShape shape{rows, n, k};
        layer_us += kernels::fp16GemmEstimate(spec, shape).us();
    }
    // Attention: 2 ops x 2 MACs x H x head_dim per key position.
    double attn_flops = 2.0 * 2.0 * static_cast<double>(heads) *
                        attn_positions *
                        static_cast<double>(model.head_dim);
    layer_us += attn_flops / (spec.fp16_tensor_tflops * 1e12 * 0.5) * 1e6;
    return layer_us * static_cast<double>(model.layers);
}

double
schemeLinearUs(compiler::Engine &eng, QuantScheme scheme,
               const GemmShape &shape)
{
    switch (scheme) {
      case QuantScheme::FP16:
        return kernels::fp16GemvEstimate(eng.spec(), shape).us();
      case QuantScheme::EWQ4:
        return kernels::ewqGemvEstimate(eng.spec(), shape, 4).us();
      case QuantScheme::VQ4:
      case QuantScheme::VQ2: {
        auto weight_cfg = schemeVqConfigs(scheme).first;
        auto request = compiler::KernelRequest::gemvOp(
            shape, weight_cfg, OptLevel::O4, &configHistogram(weight_cfg));
        return eng.compileBest(request, kAdaptiveLevels)->latencyUs();
      }
    }
    return 0;
}

double
kvSchemeAttentionUs(compiler::Engine &eng, KvScheme kv,
                    const engine::AttnShape &shape)
{
    switch (kv) {
      case KvScheme::FP16:
        return kernels::fp16AttentionEstimate(eng.spec(), shape).us();
      case KvScheme::INT4:
        return kernels::ewqAttentionEstimate(eng.spec(), shape, 4).us();
      case KvScheme::VQ4:
      case KvScheme::VQ2: {
        auto kv_cfg = kvSchemeVqConfig(kv);
        auto request = compiler::KernelRequest::attentionOp(
            shape, kv_cfg, OptLevel::O4, &configHistogram(kv_cfg));
        return eng.compileBest(request, kAdaptiveLevels)->latencyUs();
      }
    }
    return 0;
}

E2EResult
estimateFootprint(const LlamaConfig &model, QuantScheme scheme,
                  const E2EConfig &cfg)
{
    // Shared scheme scales (model_config.h).
    E2EResult result;
    result.weight_bytes = static_cast<std::uint64_t>(
        static_cast<double>(model.decoderParams()) *
        schemeWeightBytesPerParam(scheme));
    result.kv_bytes = static_cast<std::uint64_t>(
        static_cast<double>(model.kvCacheBytesFp16(
            cfg.batch, cfg.prompt_len + cfg.gen_tokens)) *
        kvSchemeScale(defaultKvScheme(scheme)));
    return result;
}

E2EResult
estimateE2E(const gpusim::GpuSpec &spec, const LlamaConfig &model,
            QuantScheme scheme, const E2EConfig &cfg)
{
    E2EResult result = estimateFootprint(model, scheme, cfg);

    // ---- Decode: evaluate one representative step at mid-generation
    // and scale (kernel latencies vary slowly with sequence length).
    // A single GPU is a TP group of one.
    const DecodeStep step =
        estimateDecodeStep(spec, model, scheme, TpConfig{}, cfg.batch,
                           cfg.prompt_len + cfg.gen_tokens / 2);
    const double layers = static_cast<double>(model.layers);
    const double step_us = step.stepUs(layers);
    result.decode_us = step_us * static_cast<double>(cfg.gen_tokens);
    result.elementwise_fraction = step.elementwise_us * layers / step_us;

    // ---- Prefill (scheme-independent, see prefillLayersUs): causal
    // attention spans ~B*H*(T^2/2)*C MACs per layer.
    double positions = static_cast<double>(cfg.batch) * 0.5 *
                       static_cast<double>(cfg.prompt_len) *
                       cfg.prompt_len;
    result.prefill_us =
        prefillLayersUs(spec, model, cfg.batch * cfg.prompt_len,
                        positions, model.heads, model.layerLinearShapes());
    return result;
}

} // namespace vqllm::llm
