#include "llm/model_config.h"

#include <algorithm>
#include <cctype>

namespace vqllm::llm {

const char *
quantSchemeName(QuantScheme scheme)
{
    switch (scheme) {
      case QuantScheme::FP16: return "FP16";
      case QuantScheme::EWQ4: return "qServe (4 bit)";
      case QuantScheme::VQ4:  return "VQ-LLM (4 bit)";
      case QuantScheme::VQ2:  return "VQ-LLM (2 bit)";
    }
    return "?";
}

bool
parseQuantScheme(const std::string &token, QuantScheme *out)
{
    std::string t = token;
    std::transform(t.begin(), t.end(), t.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (t == "fp16")
        *out = QuantScheme::FP16;
    else if (t == "ewq4" || t == "qserve")
        *out = QuantScheme::EWQ4;
    else if (t == "vq4")
        *out = QuantScheme::VQ4;
    else if (t == "vq2")
        *out = QuantScheme::VQ2;
    else
        return false;
    return true;
}

const char *
kvSchemeName(KvScheme scheme)
{
    switch (scheme) {
      case KvScheme::FP16: return "FP16";
      case KvScheme::INT4: return "INT4";
      case KvScheme::VQ4:  return "VQ4";
      case KvScheme::VQ2:  return "VQ2";
    }
    return "?";
}

const char *
kvSchemeToken(KvScheme scheme)
{
    switch (scheme) {
      case KvScheme::FP16: return "fp16";
      case KvScheme::INT4: return "int4";
      case KvScheme::VQ4:  return "vq4";
      case KvScheme::VQ2:  return "vq2";
    }
    return "?";
}

bool
parseKvScheme(const std::string &token, KvScheme *out)
{
    std::string t = token;
    std::transform(t.begin(), t.end(), t.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (t == "fp16")
        *out = KvScheme::FP16;
    else if (t == "int4")
        *out = KvScheme::INT4;
    else if (t == "vq4")
        *out = KvScheme::VQ4;
    else if (t == "vq2")
        *out = KvScheme::VQ2;
    else
        return false;
    return true;
}

KvScheme
defaultKvScheme(QuantScheme scheme)
{
    switch (scheme) {
      case QuantScheme::FP16: return KvScheme::FP16;
      case QuantScheme::EWQ4: return KvScheme::INT4;
      case QuantScheme::VQ4:  return KvScheme::VQ4;
      case QuantScheme::VQ2:  return KvScheme::VQ2;
    }
    return KvScheme::FP16;
}

vq::VQConfig
kvSchemeVqConfig(KvScheme scheme)
{
    if (scheme == KvScheme::VQ2)
        return vq::cq2();
    return vq::cq4();
}

std::pair<vq::VQConfig, vq::VQConfig>
schemeVqConfigs(QuantScheme scheme)
{
    if (scheme == QuantScheme::VQ2)
        return {vq::gptvq2(), vq::cq2()};
    return {vq::quip4(), vq::cq4()};
}

double
schemeWeightBytesPerParam(QuantScheme scheme)
{
    switch (scheme) {
      case QuantScheme::FP16:
        return 2.0;
      case QuantScheme::EWQ4:
        // 4-bit weights plus one FP16 scale per 128-element group.
        return 0.5 + 4.0 / 128;
      case QuantScheme::VQ4:
      case QuantScheme::VQ2:
        return 2.0 * schemeVqConfigs(scheme).first.compressionRatio();
    }
    return 2.0;
}

double
kvSchemeScale(KvScheme scheme)
{
    switch (scheme) {
      case KvScheme::FP16:
        return 1.0;
      case KvScheme::INT4:
        // 4-bit entries plus per-group scale/zero-point overhead.
        return 0.25 + 0.02;
      case KvScheme::VQ4:
      case KvScheme::VQ2:
        // Packed indices plus a small codebook overhead.
        return kvSchemeVqConfig(scheme).compressionRatio() + 0.01;
    }
    return 1.0;
}

std::uint64_t
kvSchemeBytesPerToken(const LlamaConfig &model, KvScheme scheme)
{
    double fp16 = static_cast<double>(model.kvCacheBytesFp16(1, 1));
    return static_cast<std::uint64_t>(fp16 * kvSchemeScale(scheme));
}

std::uint64_t
kvPackedBytesFp16(std::uint64_t elements)
{
    return elements * 2;
}

std::uint64_t
kvPackedBytesInt(std::uint64_t elements, std::size_t bits,
                 std::size_t group_size)
{
    return elements * bits / 8 + elements / group_size * 4;
}

const LlamaConfig &
llama7b()
{
    static const LlamaConfig cfg = [] {
        LlamaConfig c;
        c.name = "Llama-7B";
        c.hidden = 4096;
        c.heads = 32;
        c.head_dim = 128;
        c.layers = 32;
        c.intermediate = 11008;
        return c;
    }();
    return cfg;
}

const LlamaConfig &
llama65b()
{
    static const LlamaConfig cfg = [] {
        LlamaConfig c;
        c.name = "Llama-65B";
        c.hidden = 8192;
        c.heads = 64;
        c.head_dim = 128;
        c.layers = 80;
        c.intermediate = 22016;
        return c;
    }();
    return cfg;
}

const LlamaConfig &
llama70b()
{
    static const LlamaConfig cfg = [] {
        LlamaConfig c;
        c.name = "Llama-2-70B";
        c.hidden = 8192;
        c.heads = 64;
        c.head_dim = 128;
        c.layers = 80;
        c.intermediate = 28672;
        c.kv_heads = 8; // grouped-query attention
        return c;
    }();
    return cfg;
}

} // namespace vqllm::llm
