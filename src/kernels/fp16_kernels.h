/**
 * @file
 * FP16 baseline kernel models: cutlass-style GeMM/GeMV and the four
 * attention dataflows of paper Fig. 18 (FlashDecoding, FlashAttention,
 * and their paged variants).
 */
#pragma once

#include "engine/op_desc.h"
#include "kernels/kernel_result.h"

namespace vqllm::kernels {

/** Attention dataflow variants compared in paper Fig. 18. */
enum class AttnVariant {
    FlashDecoding,      ///< token-parallel split with a reduce pass
    FlashAttention,     ///< one block per (batch, head), sequential T
    PagedFlashDecoding, ///< FlashDecoding + paged KV indirection
    PagedFlashAttention,///< FlashAttention + paged KV indirection
};

/** @return printable variant name. */
const char *attnVariantName(AttnVariant variant);

/** Estimate a cutlass-style FP16 GeMM: y[m,n] = x[m,k] w[k,n]. */
KernelResult fp16GemmEstimate(const gpusim::GpuSpec &spec,
                              const engine::GemmShape &shape);

/** Estimate an FP16 GeMV (m rows of activations against w[k,n]). */
KernelResult fp16GemvEstimate(const gpusim::GpuSpec &spec,
                              const engine::GemmShape &shape);

/**
 * Estimate an FP16 decode-attention kernel.
 *
 * @param spec    target GPU
 * @param shape   attention problem
 * @param variant dataflow (Fig. 18)
 */
KernelResult fp16AttentionEstimate(const gpusim::GpuSpec &spec,
                                   const engine::AttnShape &shape,
                                   AttnVariant variant =
                                       AttnVariant::FlashDecoding);

} // namespace vqllm::kernels
