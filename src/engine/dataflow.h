/**
 * @file
 * Codebook-centric dataflow planning (paper Sec. VI-A, Fig. 11).
 *
 * The baseline dataflows (FlashDecoding token-parallelism; GeMM/GeMV
 * column-strip tiling) make thread blocks traverse codebook-switch axes,
 * so multiple blocks load identical codebooks (Fig. 5).  The planner
 * re-partitions the task along the switch axes so each block owns one
 * codebook, and balances the cost of the global reduction this creates
 * with the adaptive split factor:
 *
 *   Traffic_reduce(F)   = F x output_size
 *   Traffic_codebook(F) = baseline_codebook_traffic / F
 *   F* = sqrt(baseline_codebook_traffic / output_size)   (equate both)
 *
 * clamped to the number of parallelizable segments on the conflict axes.
 */
#pragma once

#include <cstdint>

#include "engine/op_desc.h"
#include "vq/vq_config.h"

namespace vqllm::engine {

/** Tiling constants of the baseline dataflows (paper Sec. III). */
struct BaselineTiling
{
    /** Weight-column strip width of GeMM/GeMV blocks. */
    static constexpr std::size_t weight_block_cols = 128;
    /** Row-tile height of GeMM blocks along the batch dimension. */
    static constexpr std::size_t gemm_block_rows = 64;
    /** K-dimension split of GeMV blocks (two-stage reduction). */
    static constexpr std::size_t gemv_split_k = 4;
    /** Tokens per FlashDecoding block. */
    static constexpr std::size_t attn_block_tokens = 256;
};

/** Result of dataflow planning for one kernel. */
struct DataflowPlan
{
    /** Axes the codebook-centric dataflow parallelizes over. */
    std::vector<Axis> switch_axes;
    /** reduce ∩ switch: axes needing explicit global reduction. */
    std::vector<Axis> conflict_axes;

    /** Continuous heuristic split factor (before clamping). */
    double split_factor_raw = 1.0;
    /** Final integer split factor. */
    std::uint64_t split = 1;
    /** Upper bound: segments available along the conflict axes. */
    std::uint64_t max_split = 1;

    /** Total duplicated codebook traffic of the baseline dataflow. */
    std::uint64_t baseline_codebook_bytes = 0;
    /** Codebook traffic after codebook-centric splitting. */
    std::uint64_t codebook_bytes = 0;
    /** Bytes the global reduction stage moves (0 when split == 1). */
    std::uint64_t reduce_bytes = 0;
    /** Output bytes entering the split-factor formula. */
    std::uint64_t output_bytes = 0;

    /**
     * Extra compute multiplier from parallelizing a reduce axis (e.g.
     * per-residual GeMM mainloops run `split` times, paper Sec. VII-C:
     * "multiple residuals ... lead to redundant computations for O3").
     */
    double compute_duplication = 1.0;

    bool
    needsGlobalReduce() const
    {
        return split > 1;
    }
};

/**
 * Plan the dataflow of a weight-quantized GeMM/GeMV.
 *
 * @param shape  GeMM problem (m=1 for GeMV)
 * @param config VQ algorithm quantizing the weight [k, n]
 * @param kind   OpKind::GeMM or OpKind::GeMV
 */
DataflowPlan planWeightDataflow(const GemmShape &shape,
                                const vq::VQConfig &config, OpKind kind);

/**
 * Plan the dataflow of a KV-cache-quantized decode attention.
 *
 * @param shape  attention problem
 * @param config VQ algorithm quantizing K and V caches
 */
DataflowPlan planAttentionDataflow(const AttnShape &shape,
                                   const vq::VQConfig &config);

} // namespace vqllm::engine
