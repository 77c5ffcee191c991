#include "engine/template_engine.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/logging.h"

namespace vqllm::engine {

namespace {

/**
 * The Tbl. IV ladder, applied once for every kernel kind.  The caller
 * has set the plan's kind, config, level, shape, codebook-centric
 * dataflow and total book count; each rung switches its technique on:
 *
 *   below O3  the baseline dataflow (no split, no reduction stage)
 *   below O4  shared-memory fusion (dequantized data staged per thread)
 *   GC        no resident book, no cache tier (planCache's empty plan)
 *   SC        one phase's books resident, greedily cached in shared
 *   O1        one resident book, an adaptive shared tier
 *   O2 and up one resident book, adaptive shared and register tiers
 *
 * Cache boundaries are carved from the slack the staged consumer leaves,
 * and the block's final resources add the staging and the cache.
 *
 * @param traversal_books books a baseline block traverses
 * @param phases          phases that reuse SC's resident space in turn
 *                        (1 for weights; K then V for attention)
 */
void
applyLadder(KernelPlan &plan, const PlanInputs &in,
            std::uint64_t traversal_books, std::uint64_t phases)
{
    vqllm_assert(in.spec != nullptr, "PlanInputs.spec is required");
    const OptLevel level = plan.level;
    const vq::VQConfig &config = plan.config;

    if (level < OptLevel::O3) {
        plan.dataflow.split = 1;
        plan.dataflow.split_factor_raw = 1.0;
        plan.dataflow.codebook_bytes =
            plan.dataflow.baseline_codebook_bytes;
        plan.dataflow.reduce_bytes = 0;
        plan.dataflow.compute_duplication = 1.0;
    } else {
        traversal_books = std::max<std::uint64_t>(
            1, traversal_books / plan.dataflow.split);
    }
    plan.switches_per_block = traversal_books;
    plan.resident_books = level == OptLevel::GC ? 0
                          : level == OptLevel::SC ? traversal_books / phases
                                                  : 1;

    if (level >= OptLevel::O4) {
        plan.fusion = planFusion(config, plan.kind, in.spec->warp_size,
                                 in.shuffle_threshold);
    } else {
        plan.fusion.level = FusionLevel::Shared;
        plan.fusion.compute_layout = computeLayout(plan.kind);
        plan.fusion.num_shuffles = 0;
    }

    // Shared-memory fusion stages one dequantized FP16 sub-vector per
    // thread.
    const gpusim::BlockResources base = baseBlockResources(plan.kind, true);
    const std::size_t staging =
        plan.fusion.level == FusionLevel::Shared
            ? static_cast<std::size_t>(base.threads) * config.vector_size * 2
            : 0;
    gpusim::BlockResources consumer = base;
    consumer.smem_bytes += staging;
    const cache::CacheTiers tiers =
        level == OptLevel::GC   ? cache::CacheTiers::None
        : level == OptLevel::SC ? cache::CacheTiers::GreedyShared
        : level == OptLevel::O1 ? cache::CacheTiers::Shared
                                : cache::CacheTiers::SharedAndRegisters;
    plan.cache_plan = cache::planCache(
        *in.spec, consumer,
        config.storedEntries() *
            std::max<std::uint64_t>(plan.resident_books, 1),
        config.entryBytes(), in.histogram, tiers);

    plan.block = consumer;
    plan.block.smem_bytes += plan.cache_plan.smemBytes();
    plan.block.regs_per_thread += plan.cache_plan.regsPerThread();
}

} // namespace

gpusim::BlockResources
baseBlockResources(OpKind kind, bool vq)
{
    switch (kind) {
      case OpKind::GeMM:
        // 128x128 output tile, k-panel double buffering.  The VQ variant
        // stages FP16 activation tiles plus an output epilogue buffer
        // (the quantized weight tile itself is small), and budgets fewer
        // registers so hot entries can be reg-cached.
        return vq ? gpusim::BlockResources{256, 48 * 1024, 64}
                  : gpusim::BlockResources{256, 32 * 1024, 96};
      case OpKind::GeMV:
        return vq ? gpusim::BlockResources{128, 1024, 32}
                  : gpusim::BlockResources{128, 2048, 40};
      case OpKind::AttentionDecode:
        // FlashDecoding: K/V token tiles; quantized tiles are ~8x
        // smaller for CQ-2.
        return vq ? gpusim::BlockResources{128, 4 * 1024, 32}
                  : gpusim::BlockResources{128, 16 * 1024, 64};
    }
    return {};
}

KernelPlan
planWeightKernel(OpKind kind, const GemmShape &shape,
                 const vq::VQConfig &config, OptLevel level,
                 const PlanInputs &in)
{
    vqllm_assert(kind == OpKind::GeMM || kind == OpKind::GeMV,
                 "weight kernel requires GeMM/GeMV");
    KernelPlan plan;
    plan.kind = kind;
    plan.config = config;
    plan.level = level;
    plan.gemm = shape;
    plan.uses_tensor_cores = (kind == OpKind::GeMM);
    plan.dataflow = planWeightDataflow(shape, config, kind);

    // --- Codebook accounting ---------------------------------------------
    std::uint64_t tiles_k = ceilDiv(shape.k, vq::kGptvqTileRows);
    std::uint64_t tiles_n = ceilDiv(shape.n, vq::kGptvqTileCols);
    std::uint64_t traversal_books = 1;
    switch (config.scope) {
      case vq::CodebookScope::PerTensor:
        plan.total_books = config.residuals;
        traversal_books = config.residuals;
        break;
      case vq::CodebookScope::PerTile:
        plan.total_books = tiles_k * tiles_n;
        traversal_books = tiles_k; // a column strip crosses K tiles
        break;
      case vq::CodebookScope::PerChannelGroup:
        plan.total_books = shape.k / config.vector_size;
        traversal_books = plan.total_books;
        break;
    }
    applyLadder(plan, in, traversal_books, /*phases=*/1);

    // --- Grid ------------------------------------------------------------
    std::uint64_t blocks_n =
        ceilDiv(shape.n, BaselineTiling::weight_block_cols);
    std::uint64_t blocks_m =
        kind == OpKind::GeMM
            ? ceilDiv(shape.m, BaselineTiling::gemm_block_rows)
            : 1;
    std::uint64_t split_k =
        kind == OpKind::GeMV ? BaselineTiling::gemv_split_k : 1;
    plan.grid_blocks = blocks_n * blocks_m * split_k *
                       plan.dataflow.split;
    return plan;
}

KernelPlan
planAttentionKernel(const AttnShape &shape, const vq::VQConfig &config,
                    OptLevel level, const PlanInputs &in)
{
    KernelPlan plan;
    plan.kind = OpKind::AttentionDecode;
    plan.config = config;
    plan.level = level;
    plan.attn = shape;
    plan.dataflow = planAttentionDataflow(shape, config);

    // --- Codebook accounting -----------------------------------------------
    // A block traverses its KV head's K and V books; SC keeps one phase's
    // books resident (K then V reuse the space).
    std::uint64_t groups = std::max<std::uint64_t>(
        shape.head_dim / config.vector_size, 1);
    plan.total_books = shape.kvHeads() * groups * 2;
    applyLadder(plan, in, groups * 2, /*phases=*/2);

    // V-cache accumulation mismatches the dequantization layout (Fig. 6)
    // and needs the exchange the ladder planned; the K cache dequantizes
    // in consumption order (row-wise inner product) and never does.
    plan.fusion_k = planFusion(config, OpKind::AttentionDecode,
                               in.spec->warp_size, in.shuffle_threshold,
                               /*layout_matches=*/true);

    // --- Grid ---------------------------------------------------------------
    std::uint64_t bh = static_cast<std::uint64_t>(shape.batch) *
                       shape.heads;
    if (level >= OptLevel::O3) {
        plan.grid_blocks = bh * plan.dataflow.split;
    } else {
        plan.grid_blocks =
            bh * ceilDiv(shape.seq_len, BaselineTiling::attn_block_tokens);
    }
    return plan;
}

} // namespace vqllm::engine
