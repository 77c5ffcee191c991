/**
 * @file
 * The template engine: paper Alg. 2's offline phase.
 *
 * Given (GPU, computation shape, VQ config, optimization level) it
 * resolves every adaptive parameter — shared/register cache budgets from
 * occupancy slack, the dataflow split factor, the fusion level and
 * thread mapping — and returns a KernelPlan.
 */
#pragma once

#include "engine/kernel_plan.h"
#include "gpusim/gpu_spec.h"
#include "vq/profiler.h"

namespace vqllm::engine {

/** Inputs shared by all planning calls. */
struct PlanInputs
{
    /** Target GPU. */
    const gpusim::GpuSpec *spec = nullptr;
    /**
     * Offline access histogram of the (reordered) codebook; optional.
     * When absent the register boundary falls back to the policy cap.
     */
    const vq::AccessHistogram *histogram = nullptr;
    /** Fusion threshold: max shuffles for register fusion. */
    int shuffle_threshold = 5;
};

/**
 * Plan a weight-quantized GeMM or GeMV kernel.
 *
 * @param kind   OpKind::GeMM or OpKind::GeMV
 * @param shape  problem shape (weight is [k, n]; m is batch)
 * @param config VQ algorithm
 * @param level  optimization ladder rung (Tbl. IV)
 * @param in     planning inputs
 */
KernelPlan planWeightKernel(OpKind kind, const GemmShape &shape,
                            const vq::VQConfig &config, OptLevel level,
                            const PlanInputs &in);

/**
 * Plan a KV-cache-quantized decode-attention kernel.
 */
KernelPlan planAttentionKernel(const AttnShape &shape,
                               const vq::VQConfig &config, OptLevel level,
                               const PlanInputs &in);

/**
 * Base (unquantized-consumer) per-block resources for an op kind.
 *
 * These model the consumer kernel's own footprint before any codebook
 * cache or staging allocations are added.
 *
 * @param kind the computation
 * @param vq   true for the VQ-fused variant (quantized operand tiles are
 *             smaller than FP16 tiles)
 */
gpusim::BlockResources baseBlockResources(OpKind kind, bool vq);

} // namespace vqllm::engine
