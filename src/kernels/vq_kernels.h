/**
 * @file
 * Fused VQ kernels over the simulated GPU.
 *
 * Two modes:
 *  - *Analytic estimation* (`estimateVq*Kernel`): closed-form counters
 *    derived from a KernelPlan at any problem scale; used by the
 *    figure/table benches.  Tier hit fractions come from a real access
 *    histogram when provided.
 *  - *Functional execution* (`runVqGemv`, `runVqAttention`): bit-exact
 *    dequantize-and-compute on host tensors through the instrumented
 *    CodebookCache, with exact warp-level bank-conflict counting; used
 *    by correctness and model-consistency tests.
 */
#pragma once

#include "engine/kernel_plan.h"
#include "kernels/kernel_result.h"
#include "tensor/tensor.h"
#include "vq/profiler.h"

namespace vqllm::kernels {

// Calibration constants of the VQ kernel cost formulas.

/** L1 hit rate of uncached (global-tier) entry fetches (paper: 12.45%
 *  profiled for VQ-attn-GC). */
inline constexpr double kGcL1Hit = 0.1245;
/** Effective DRAM bytes fetched per missed entry access. */
inline constexpr double kSectorBytes = 24.0;
/** Monte-Carlo samples for the shared-tier conflict multiplier. */
inline constexpr int kConflictSamples = 256;
/** Seed of the conflict multiplier's Monte-Carlo estimate. */
inline constexpr std::uint64_t kConflictSeed = 0x5eedu;

/** Per-tier access shares implied by a cache plan. */
struct TierFractions
{
    double reg = 0;
    double shared = 0;
    double global = 0;
};

/**
 * Compute tier hit fractions for a plan.
 *
 * With a histogram whose size matches the plan's entry count, fractions
 * are exact sums of its descending counts over the tiers' rank ranges;
 * otherwise coverage is assumed uniform.  A plan with several resident
 * books counts storedEntries x resident_books entries, so it always
 * prices uniform popularity.  The estimators below apply the same rule
 * to the shared tier's bank-conflict weights.
 */
TierFractions tierHitFractions(const cache::CachePlan &plan,
                               const vq::AccessHistogram *hist);

/**
 * Analytic estimate of a weight-quantized GeMM/GeMV kernel.
 *
 * @param spec target GPU
 * @param plan fully-resolved kernel plan (engine::planWeightKernel)
 * @param hist optional access histogram of one codebook
 */
KernelResult estimateVqWeightKernel(const gpusim::GpuSpec &spec,
                                    const engine::KernelPlan &plan,
                                    const vq::AccessHistogram *hist =
                                        nullptr);

/**
 * Analytic estimate of a KV-cache-quantized decode-attention kernel.
 */
KernelResult estimateVqAttentionKernel(const gpusim::GpuSpec &spec,
                                       const engine::KernelPlan &plan,
                                       const vq::AccessHistogram *hist =
                                           nullptr);

/** Outcome of a functional kernel execution. */
struct FunctionalResult
{
    /** Computed output tensor. */
    Tensor<float> output;
    /** Exactly-measured event counters. */
    gpusim::KernelCounters counters;
    /** Tier hit statistics across all codebook accesses. */
    cache::AccessStats stats;
};

/**
 * Functionally execute a VQ GeMV: y[n] = W[n,k] x[k] with W quantized.
 *
 * The execution honors the plan's cache boundaries (tier hits and exact
 * warp bank conflicts), fusion level (staging traffic vs shuffles), and
 * codebook switching order.
 *
 * @param plan kernel plan (kind must be GeMV)
 * @param qt   quantized weight, rows = n (output features), cols = k
 * @param x    [k] activation vector
 */
FunctionalResult runVqGemv(const engine::KernelPlan &plan,
                           const vq::QuantizedTensor &qt,
                           const Tensor<float> &x);

/**
 * Functionally execute a VQ GeMM: y[m,n] = x[m,k] W[n,k]^T with W
 * quantized.  Each output-row block re-dequantizes the weight strips it
 * consumes (fused kernels cannot share dequantized tiles across
 * blocks), which the counters reflect.
 *
 * @param plan kernel plan (kind must be GeMM)
 * @param qt   quantized weight, rows = n (output features), cols = k
 * @param x    [m, k] activations
 */
FunctionalResult runVqGemm(const engine::KernelPlan &plan,
                           const vq::QuantizedTensor &qt,
                           const Tensor<float> &x);

/**
 * Functionally execute VQ decode attention for one query token.
 *
 * @param plan kernel plan (kind must be AttentionDecode)
 * @param qt_k quantized K cache, rows = tokens, cols = heads*head_dim
 * @param qt_v quantized V cache, same shape
 * @param q    [heads, head_dim] query
 * @return output [heads, head_dim]
 */
FunctionalResult runVqAttention(const engine::KernelPlan &plan,
                                const vq::QuantizedTensor &qt_k,
                                const vq::QuantizedTensor &qt_v,
                                const Tensor<float> &q);

} // namespace vqllm::kernels
