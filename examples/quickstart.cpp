/**
 * @file
 * Quickstart: the complete VQ-LLM flow in one small program.
 *
 *  1. quantize a weight matrix with a VQ configuration,
 *  2. profile codebook access frequencies and reorder (offline phase),
 *  3. compile a fused kernel through compiler::Engine (plan -> cost ->
 *     emit -> execute behind one call),
 *  4. run it functionally and check the numerics,
 *  5. run fused decode attention over a CQ-2-quantized KV cache and
 *     check it the same way,
 *  6. estimate the GeMV's GPU latency and print its CUDA source.
 *
 * Exits 1 when a functional check misses the tolerance of the
 * VqGemvFunctional/VqAttentionFunctional tests (ctest runs it).
 *
 * Build: cmake --build build && ./build/quickstart
 */
#include <cstdio>

#include "compiler/engine.h"
#include "kernels/reference.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"

using namespace vqllm;

namespace {

/** Prints a functional check; false past the tests' 1e-3 tolerance. */
bool
check(const char *kernel, double max_abs_diff)
{
    std::printf("%s functional check: max |vq - reference| = %.2e\n",
                kernel, max_abs_diff);
    if (max_abs_diff <= 1e-3)
        return true;
    std::fprintf(stderr, "quickstart: %s error exceeds 1e-3\n", kernel);
    return false;
}

/** The reference's [heads, tokens, channels] view of a KV cache that
 *  VQ stores one row per token, [tokens, heads * channels]. */
Tensor<float>
perHead(const Tensor<float> &rows, std::size_t heads)
{
    const std::size_t tokens = rows.dim(0), channels = rows.dim(1) / heads;
    Tensor<float> kv({heads, tokens, channels});
    for (std::size_t h = 0; h < heads; ++h)
        for (std::size_t t = 0; t < tokens; ++t)
            for (std::size_t c = 0; c < channels; ++c)
                kv.at(h, t, c) = rows.at(t, h * channels + c);
    return kv;
}

} // namespace

int
main()
{
    // 1. A small weight matrix and a 2-bit VQ configuration.
    Rng rng(42);
    auto weight = generateLlmWeight(128, 64, rng); // [out, in]
    vq::VQConfig cfg = vq::gptvq2();               // VQ<4,8,1>
    cfg.num_entries = 64;                          // small demo codebook

    vq::VectorQuantizer quantizer(cfg);
    auto qt = quantizer.quantize(weight);
    std::printf("quantized %zux%zu weight with %s: %zu -> %zu bytes "
                "(%.1f%%)\n",
                qt.rows, qt.cols, cfg.notation().c_str(),
                weight.size() * 2, qt.sizeBytes(),
                qt.achievedCompression() * 100);

    // 2. Offline profiling: frequency-reorder entries so that index ==
    //    hotness rank (the codebook cache's static mapping).
    auto profile = vq::reorderByFrequency(qt);
    std::printf("hot entries (>mu+3sigma): %zu of %zu; %.0f%% below "
                "mean\n",
                profile.histograms[0].entriesAbove(3.0),
                profile.histograms[0].size(),
                profile.histograms[0].fractionBelowMean() * 100);

    // 3. Compile the fused GeMV kernel at the full optimization level:
    //    one call resolves the plan (Alg. 2), prices it, and hands
    //    back a shared immutable artifact.
    compiler::Engine compile_engine(gpusim::rtx4090());
    auto kernel = compile_engine.compile(compiler::KernelRequest::gemvOp(
        {1, qt.rows, qt.cols}, cfg, engine::OptLevel::O4,
        &profile.histograms[0]));
    std::printf("\n%s\n", kernel->plan().summary().c_str());

    // 4. Functional execution vs the dense reference.
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);
    auto result = kernel->runGemv(qt, x);
    auto reference = kernels::referenceGemv(
        vq::VectorQuantizer::dequantize(qt), x);
    if (!check("GeMV", maxAbsDiff(result.output, reference)))
        return 1;
    std::printf("cache tier hits: %llu register / %llu shared / %llu "
                "global\n",
                static_cast<unsigned long long>(result.stats.reg_hits),
                static_cast<unsigned long long>(
                    result.stats.shared_hits),
                static_cast<unsigned long long>(
                    result.stats.global_hits));

    // 5. Decode attention over a CQ-2 KV cache (the long-context case,
    //    where the KV cache dominates memory), against the reference
    //    over the dequantized cache.
    const std::size_t heads = 4, tokens = 96, channels = 16;
    vq::VQConfig kv_cfg = vq::cq2();
    kv_cfg.num_entries = 64;
    auto quantizeKv = [&] {
        auto rows = generateKvCache(1, tokens, heads * channels, rng);
        rows.reshape({tokens, heads * channels});
        return vq::VectorQuantizer(kv_cfg).quantize(rows);
    };
    auto qt_k = quantizeKv();
    auto qt_v = quantizeKv();
    Tensor<float> q({heads, channels});
    fillNormal(q, rng);
    auto attention = compile_engine.compile(
        compiler::KernelRequest::attentionOp(
            {1, heads, tokens, channels}, kv_cfg, engine::OptLevel::O4));
    auto reference_attn = kernels::referenceAttention(
        q, perHead(vq::VectorQuantizer::dequantize(qt_k), heads),
        perHead(vq::VectorQuantizer::dequantize(qt_v), heads));
    std::printf("\n%s\n", attention->plan().summary().c_str());
    if (!check("attention",
               maxAbsDiff(attention->runAttention(qt_k, qt_v, q).output,
                          reference_attn)))
        return 1;

    // 6. Latency estimate at paper scale, plus the CUDA source — both
    //    come off the same compiled artifact (the estimate was priced
    //    at compile time; the source is emitted lazily and memoized).
    auto big = compile_engine.compile(compiler::KernelRequest::gemvOp(
        {1, 4096, 4096}, vq::gptvq2(), engine::OptLevel::O4,
        &profile.histograms[0]));
    std::printf("\nLlama-7B GeMV estimate on %s: %.1f us (DRAM %.1f, "
                "compute %.1f)\n",
                gpusim::rtx4090().name.c_str(), big->latencyUs(),
                big->estimate().latency.dram_us,
                big->estimate().latency.compute_us);

    const std::string &cuda = big->source();
    std::printf("\ngenerated CUDA kernel %s (%zu bytes); first "
                "lines:\n",
                big->symbolName().c_str(), cuda.size());
    std::size_t pos = 0;
    for (int line = 0; line < 12 && pos != std::string::npos; ++line) {
        std::size_t next = cuda.find('\n', pos);
        std::printf("  %s\n",
                    cuda.substr(pos, next - pos).c_str());
        pos = next == std::string::npos ? next : next + 1;
    }
    std::printf("  ...\n");
    return 0;
}
