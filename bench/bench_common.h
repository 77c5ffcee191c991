/**
 * @file
 * Shared helpers for the benchmark harnesses (one binary per paper
 * table/figure).
 */
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/table.h"
#include "compiler/engine.h"
#include "kernels/ewq_kernels.h"
#include "kernels/fp16_kernels.h"
#include "kernels/vq_kernels.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"

namespace vqllm::bench {

/**
 * Process-wide compile engine for a GPU spec: all bench harness
 * helpers plan/cost through this facade, so a figure sweeping many
 * levels against one shape pays each compile once.
 */
inline compiler::Engine &
engineFor(const gpusim::GpuSpec &spec)
{
    return compiler::Engine::shared(spec);
}

/**
 * Build a realistic access histogram for a VQ config by quantizing a
 * synthetic clustered sample and profiling its indices (the offline
 * profiling phase of the codebook cache).  Results are memoized per
 * config name within the process.
 *
 * @param cfg the VQ configuration
 * @param kv  sample KV-cache-like data instead of weight-like data
 */
const vq::AccessHistogram &sampleHistogram(const vq::VQConfig &cfg,
                                           bool kv = false);

/** The fit behind sampleHistogram(), without the memo (every call fits). */
vq::AccessHistogram fitSampleHistogram(const vq::VQConfig &cfg,
                                       bool kv = false);

/** Llama-7B / Llama-65B kernel shapes used across the benches. */
struct ModelShapes
{
    std::size_t hidden = 4096;
    std::size_t heads = 32;
    std::size_t head_dim = 128;

    engine::GemmShape
    gemm(std::size_t m) const
    {
        return {m, hidden, hidden};
    }

    engine::AttnShape
    attention(std::size_t batch, std::size_t seq) const
    {
        return {batch, heads, seq, head_dim};
    }
};

/** @return Llama-7B shapes. */
inline ModelShapes
llama7b()
{
    return ModelShapes{4096, 32, 128};
}

/** @return Llama-65B shapes. */
inline ModelShapes
llama65b()
{
    return ModelShapes{8192, 64, 128};
}

/** Format a latency ratio like the paper's relative plots. */
std::string formatRatio(double value, double baseline);

/** Plan + estimate a VQ attention kernel at one optimization level. */
kernels::KernelResult attnAtLevel(const gpusim::GpuSpec &spec,
                                  const engine::AttnShape &shape,
                                  const vq::VQConfig &cfg,
                                  engine::OptLevel level);

/** Plan + estimate a VQ weight kernel at one optimization level. */
kernels::KernelResult weightAtLevel(const gpusim::GpuSpec &spec,
                                    engine::OpKind kind,
                                    const engine::GemmShape &shape,
                                    const vq::VQConfig &cfg,
                                    engine::OptLevel level);

/** @return the best (lowest-latency) level of the O1..O4 ladder. */
kernels::KernelResult bestAttn(const gpusim::GpuSpec &spec,
                               const engine::AttnShape &shape,
                               const vq::VQConfig &cfg);

kernels::KernelResult bestWeight(const gpusim::GpuSpec &spec,
                                 engine::OpKind kind,
                                 const engine::GemmShape &shape,
                                 const vq::VQConfig &cfg);

/**
 * Largest sustainable arrival rate: a bisection on [0.25, 64) QPS to a
 * 0.25-QPS step.
 *
 * @param meets runs a load at the given QPS and says whether it holds
 *              the caller's SLO
 * @return the highest rate found to meet it; 0 if 0.25 QPS does not
 */
double maxQpsUnderSlo(const std::function<bool(double)> &meets);

} // namespace vqllm::bench
