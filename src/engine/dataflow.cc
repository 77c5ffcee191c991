#include "engine/dataflow.h"

#include <algorithm>
#include <cmath>

#include "common/bitutils.h"
#include "common/logging.h"

namespace vqllm::engine {

namespace {

/**
 * Apply the paper's split-factor heuristic to a plan whose baseline
 * codebook traffic and output size are already filled in.
 */
void
applySplitHeuristic(DataflowPlan &plan)
{
    if (plan.conflict_axes.empty() || plan.max_split <= 1 ||
        plan.baseline_codebook_bytes == 0) {
        plan.split = 1;
        plan.split_factor_raw = 1.0;
        plan.codebook_bytes = plan.baseline_codebook_bytes;
        plan.reduce_bytes = 0;
        return;
    }
    plan.split_factor_raw =
        std::sqrt(static_cast<double>(plan.baseline_codebook_bytes) /
                  std::max<double>(1.0,
                                   static_cast<double>(plan.output_bytes)));
    double clamped = std::clamp(plan.split_factor_raw, 1.0,
                                static_cast<double>(plan.max_split));
    plan.split = static_cast<std::uint64_t>(std::llround(clamped));
    plan.split = std::max<std::uint64_t>(plan.split, 1);

    plan.codebook_bytes = plan.baseline_codebook_bytes / plan.split;
    plan.reduce_bytes =
        plan.split > 1 ? plan.split * plan.output_bytes : 0;
}

} // namespace

DataflowPlan
planWeightDataflow(const GemmShape &shape, const vq::VQConfig &config,
                   OpKind kind)
{
    vqllm_assert(kind == OpKind::GeMM || kind == OpKind::GeMV,
                 "weight dataflow requires a GeMM/GeMV kind");
    DataflowPlan plan;
    AxisInfo info = weightAxisInfo();
    plan.switch_axes = weightSwitchAxes(config);
    plan.conflict_axes = conflictAxes(info, plan.switch_axes);

    // Baseline tiling: column strips (row tiles for GeMM, split-K
    // segments for GeMV).
    std::uint64_t blocks_n =
        ceilDiv(shape.n, BaselineTiling::weight_block_cols);
    std::uint64_t blocks_m =
        kind == OpKind::GeMM
            ? ceilDiv(shape.m, BaselineTiling::gemm_block_rows)
            : 1;
    std::uint64_t split_k =
        kind == OpKind::GeMV ? BaselineTiling::gemv_split_k : 1;

    std::uint64_t cb_bytes = config.codebookBytes();
    switch (config.scope) {
      case vq::CodebookScope::PerTensor: {
        // Every block loads the per-residual codebooks of the tensor;
        // split-K segments of a strip each load their own copy.
        std::uint64_t books = config.residuals;
        plan.baseline_codebook_bytes =
            books * cb_bytes * blocks_n * blocks_m * split_k;
        // Conflict axis R: at most `residuals` parallel segments, and a
        // residual split re-runs the mainloop per stage.
        plan.max_split = config.residuals;
        break;
      }
      case vq::CodebookScope::PerTile: {
        // A (256,256) tile's codebook is loaded by every 128-wide block
        // strip overlapping it, and by every row tile of the GeMM.
        std::uint64_t tiles_k = ceilDiv(shape.k, vq::kGptvqTileRows);
        std::uint64_t tiles_n = ceilDiv(shape.n, vq::kGptvqTileCols);
        std::uint64_t strips_per_tile =
            vq::kGptvqTileCols / BaselineTiling::weight_block_cols;
        plan.baseline_codebook_bytes = tiles_k * tiles_n * cb_bytes *
                                       strips_per_tile * blocks_m;
        // Conflict axis M: the K dimension can split across tiles_k
        // segments, each owning its codebooks.
        plan.max_split = std::max<std::uint64_t>(tiles_k, 1);
        break;
      }
      case vq::CodebookScope::PerChannelGroup: {
        std::uint64_t groups = shape.k / config.vector_size;
        plan.baseline_codebook_bytes =
            groups * cb_bytes * blocks_n * blocks_m;
        plan.max_split = std::max<std::uint64_t>(groups, 1);
        break;
      }
    }

    // Partial outputs are FP16.
    plan.output_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;

    applySplitHeuristic(plan);

    // Residual splits duplicate the mainloop's MMA work per stage.
    if (config.scope == vq::CodebookScope::PerTensor && plan.split > 1)
        plan.compute_duplication = static_cast<double>(plan.split);
    return plan;
}

DataflowPlan
planAttentionDataflow(const AttnShape &shape, const vq::VQConfig &config)
{
    DataflowPlan plan;
    AxisInfo info = attentionAxisInfo(AttnOperand::KCache);
    plan.switch_axes = attentionSwitchAxes(config);
    plan.conflict_axes = conflictAxes(info, plan.switch_axes);

    std::uint64_t groups =
        std::max<std::uint64_t>(shape.head_dim / config.vector_size, 1);
    std::uint64_t blocks_t = ceilDiv(shape.seq_len,
                                     BaselineTiling::attn_block_tokens);
    std::uint64_t cb_bytes = config.codebookBytes();

    // Baseline FlashDecoding: every token-parallel block of a
    // (batch, query-head) loads all channel-group codebooks of its KV
    // head, for both K and V (Fig. 5 outer box).  Under GQA several
    // query heads re-load the same shared KV books, so the duplication
    // still scales with query heads.
    std::uint64_t books_per_head = groups * 2; // K and V
    plan.baseline_codebook_bytes = static_cast<std::uint64_t>(shape.batch) *
                                   shape.heads * books_per_head *
                                   cb_bytes * blocks_t;
    plan.max_split = groups;

    // Parallelizing channel groups requires globally reducing partial
    // QK^T logits: B x H x T float partials per split segment.
    plan.output_bytes = static_cast<std::uint64_t>(shape.batch) *
                        shape.heads * shape.seq_len * 4;

    applySplitHeuristic(plan);
    return plan;
}

} // namespace vqllm::engine
