#include "kernels/fp16_kernels.h"

#include "common/bitutils.h"
#include "engine/template_engine.h"
#include "llm/model_config.h"

namespace vqllm::kernels {

namespace {

// Paged-KV layout of the paged attention variants.
/** Tokens per KV page. */
constexpr std::size_t kPageTokens = 16;
/** Bytes per page-table entry. */
constexpr std::size_t kPageEntryBytes = 8;
/** Bandwidth efficiency of page-granular gathers. */
constexpr double kGatherEfficiency = 0.92;

} // namespace

const char *
attnVariantName(AttnVariant variant)
{
    switch (variant) {
      case AttnVariant::FlashDecoding:       return "Flash Decoding";
      case AttnVariant::FlashAttention:      return "Flash Attention";
      case AttnVariant::PagedFlashDecoding:  return "Paged Flash Decoding";
      case AttnVariant::PagedFlashAttention: return "Paged Flash Attention";
    }
    return "?";
}

KernelResult
fp16GemmEstimate(const gpusim::GpuSpec &spec,
                 const engine::GemmShape &shape)
{
    gpusim::KernelCounters c;
    // Activations + weights in, outputs out; tile reuse through shared
    // memory keeps DRAM traffic near the algorithmic minimum.
    c.dram_read_bytes = (static_cast<std::uint64_t>(shape.m) * shape.k +
                         static_cast<std::uint64_t>(shape.k) * shape.n) *
                        2;
    c.dram_write_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;
    c.global_to_shared_bytes = c.dram_read_bytes;
    c.flops = shape.flops();
    // Tile staging through shared memory: in and out once each.
    std::uint64_t smem_bytes = c.dram_read_bytes * 2;
    c.smem_transactions = smem_bytes / 128;
    c.smem_ideal_transactions = c.smem_transactions;

    gpusim::LaunchConfig launch;
    launch.block = engine::baseBlockResources(engine::OpKind::GeMM, false);
    launch.grid_blocks = ceilDiv(shape.m, 128) * ceilDiv(shape.n, 128);
    launch.uses_tensor_cores = true;
    return finishEstimate(spec, launch, c);
}

KernelResult
fp16GemvEstimate(const gpusim::GpuSpec &spec,
                 const engine::GemmShape &shape)
{
    gpusim::KernelCounters c;
    c.dram_read_bytes = (static_cast<std::uint64_t>(shape.k) * shape.n +
                         static_cast<std::uint64_t>(shape.m) * shape.k) *
                        2;
    c.dram_write_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;
    c.flops = shape.flops();
    c.smem_transactions = shape.m * shape.k * 2 / 128 + 1;
    c.smem_ideal_transactions = c.smem_transactions;

    gpusim::LaunchConfig launch;
    launch.block = engine::baseBlockResources(engine::OpKind::GeMV, false);
    launch.grid_blocks =
        ceilDiv(shape.n, 128) * engine::BaselineTiling::gemv_split_k;
    launch.uses_tensor_cores = false;
    return finishEstimate(spec, launch, c);
}

KernelResult
fp16AttentionEstimate(const gpusim::GpuSpec &spec,
                      const engine::AttnShape &shape, AttnVariant variant)
{
    const bool paged = variant == AttnVariant::PagedFlashDecoding ||
                       variant == AttnVariant::PagedFlashAttention;
    const bool decoding = variant == AttnVariant::FlashDecoding ||
                          variant == AttnVariant::PagedFlashDecoding;

    gpusim::KernelCounters c;
    std::uint64_t kv_bytes = llm::kvPackedBytesFp16(shape.kvElements());
    c.dram_read_bytes = kv_bytes +
                        shape.batch * shape.heads * shape.head_dim * 2;
    c.dram_write_bytes = shape.outputElements() * 2;
    c.global_to_shared_bytes = kv_bytes;
    c.flops = shape.flops();
    c.smem_transactions = kv_bytes * 2 / 128; // stage in, read out
    c.smem_ideal_transactions = c.smem_transactions;

    std::uint64_t bh = static_cast<std::uint64_t>(shape.batch) *
                       shape.heads;
    gpusim::LaunchConfig launch;
    launch.block =
        engine::baseBlockResources(engine::OpKind::AttentionDecode, false);
    launch.uses_tensor_cores = false;

    if (decoding) {
        // Token-parallel split + a global reduce of per-split partial
        // outputs and softmax statistics.
        std::uint64_t blocks_t =
            ceilDiv(shape.seq_len, engine::BaselineTiling::attn_block_tokens);
        launch.grid_blocks = bh * blocks_t;
        c.reduce_bytes = bh * blocks_t * (shape.head_dim + 2) * 4;
    } else {
        // One block per (batch, head): no reduce, but far less
        // parallelism — the decode-phase weakness of FlashAttention.
        launch.grid_blocks = bh;
    }

    if (paged) {
        // Page-table walks: one entry per page per consuming block, and
        // gather-granular bandwidth efficiency.
        std::uint64_t pages = ceilDiv(shape.seq_len, kPageTokens);
        c.dram_read_bytes += pages * kPageEntryBytes *
                             (decoding ? launch.grid_blocks / bh : 1) * bh;
        c.unpack_ops += pages * launch.grid_blocks / bh * bh;
        double penalty = 1.0 / kGatherEfficiency;
        c.dram_read_bytes = static_cast<std::uint64_t>(
            static_cast<double>(c.dram_read_bytes) * penalty);
    }
    return finishEstimate(spec, launch, c);
}

} // namespace vqllm::kernels
