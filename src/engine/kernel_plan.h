/**
 * @file
 * KernelPlan: the fully-resolved parameterization of one fused VQ kernel
 * (the output of paper Alg. 2's offline phase).
 *
 * A plan binds a VQ configuration and a computation shape to concrete
 * machine decisions: cache boundaries, dataflow split, fusion level and
 * thread mapping, block resources and grid size.  Plans are consumed by
 * the simulated kernels (src/kernels) and the CUDA emitter (src/codegen).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cache/codebook_cache.h"
#include "engine/dataflow.h"
#include "engine/fusion.h"
#include "engine/op_desc.h"
#include "gpusim/occupancy.h"

namespace vqllm {
class TextBuilder;
} // namespace vqllm

namespace vqllm::engine {

/**
 * Optimization ladder of the evaluation (paper Tbl. IV).
 *
 * Each level adds one technique on top of the previous:
 *   GC: naive, codebooks in global memory
 *   SC: greedy, all entries in shared memory
 *   O1: adaptive shared-memory caching (medium entries)
 *   O2: + register caching (hot entries)
 *   O3: + codebook-centric dataflow
 *   O4: + codebook-centric hierarchical fusion
 */
enum class OptLevel {
    GC,
    SC,
    O1,
    O2,
    O3,
    O4,
};

/** @return printable level name matching Tbl. IV. */
const char *optLevelName(OptLevel level);

/** All levels in ladder order. */
inline constexpr OptLevel kAllOptLevels[] = {
    OptLevel::GC, OptLevel::SC, OptLevel::O1,
    OptLevel::O2, OptLevel::O3, OptLevel::O4,
};

/** A fully-resolved fused VQ kernel parameterization. */
struct KernelPlan
{
    OpKind kind = OpKind::GeMV;
    vq::VQConfig config;
    OptLevel level = OptLevel::O4;

    /** Problem shape (gemm valid for GeMM/GeMV, attn for attention). */
    GemmShape gemm;
    AttnShape attn;

    /** Codebook-cache boundaries (per resident working set). */
    cache::CachePlan cache_plan;
    /** Dataflow decision (split factor, reduce traffic). */
    DataflowPlan dataflow;
    /** Fusion decision for the exchanged operand (weights / V cache). */
    FusionPlan fusion;
    /** Fusion decision for the K cache (layout matches, attention only). */
    FusionPlan fusion_k;

    /** Final per-block resources including cache and staging memory. */
    gpusim::BlockResources block;
    /** Thread blocks in the grid. */
    std::uint64_t grid_blocks = 1;
    /** Whether the consumer math runs on tensor cores. */
    bool uses_tensor_cores = false;

    /** Codebooks in the quantized tensor(s) overall. */
    std::uint64_t total_books = 1;
    /** Codebooks a block keeps resident concurrently. */
    std::uint64_t resident_books = 1;
    /** Codebook switches (Switch API calls) per block. */
    std::uint64_t switches_per_block = 0;

    /** @return warps per block. */
    int
    warpsPerBlock() const
    {
        return (block.threads + 31) / 32;
    }

    /** @return human-readable multi-line description of the plan. */
    std::string summary() const;

    /** Append summary() to `out`, each line led by `prefix` (the
     *  emitter writes it into the source as `// ` comments). */
    void appendSummary(TextBuilder &out, std::string_view prefix) const;
};

} // namespace vqllm::engine
