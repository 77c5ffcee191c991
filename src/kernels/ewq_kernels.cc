#include "kernels/ewq_kernels.h"

#include "common/bitutils.h"
#include "engine/template_engine.h"
#include "llm/model_config.h"

namespace vqllm::kernels {

namespace {

/** Scale/zero metadata bytes for group-wise quantization. */
std::uint64_t
metadataBytes(std::uint64_t elements, std::size_t group_size)
{
    // FP16 scale + FP16 zero per group.
    return elements / group_size * 4;
}

} // namespace

KernelResult
ewqGemmEstimate(const gpusim::GpuSpec &spec,
                const engine::GemmShape &shape, unsigned bits,
                std::size_t group_size)
{
    gpusim::KernelCounters c;
    std::uint64_t weight_elems =
        static_cast<std::uint64_t>(shape.k) * shape.n;
    std::uint64_t w_bytes = weight_elems * bits / 8 +
                            metadataBytes(weight_elems, group_size);
    std::uint64_t act_bytes =
        static_cast<std::uint64_t>(shape.m) * shape.k * 2;
    c.dram_read_bytes = w_bytes + act_bytes;
    c.dram_write_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;
    c.global_to_shared_bytes = c.dram_read_bytes;
    c.flops = shape.flops();
    // Element-wise dequantization: one shift/mask + FMA per element.
    c.unpack_ops = weight_elems;
    std::uint64_t tile_trans = (w_bytes + act_bytes) * 2 / 128;
    c.smem_transactions = tile_trans;
    c.smem_ideal_transactions = tile_trans;

    gpusim::LaunchConfig launch;
    launch.block = engine::baseBlockResources(engine::OpKind::GeMM, true);
    launch.grid_blocks = ceilDiv(shape.m, 128) * ceilDiv(shape.n, 128);
    launch.uses_tensor_cores = true;
    return finishEstimate(spec, launch, c);
}

KernelResult
ewqGemvEstimate(const gpusim::GpuSpec &spec,
                const engine::GemmShape &shape, unsigned bits,
                std::size_t group_size)
{
    gpusim::KernelCounters c;
    std::uint64_t weight_elems =
        static_cast<std::uint64_t>(shape.k) * shape.n;
    std::uint64_t w_bytes = weight_elems * bits / 8 +
                            metadataBytes(weight_elems, group_size);
    std::uint64_t act_bytes =
        static_cast<std::uint64_t>(shape.m) * shape.k * 2;
    c.dram_read_bytes = w_bytes + act_bytes;
    c.dram_write_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;
    c.flops = shape.flops();
    c.unpack_ops = weight_elems;
    c.smem_transactions = act_bytes * 2 / 128 + 1;
    c.smem_ideal_transactions = c.smem_transactions;

    gpusim::LaunchConfig launch;
    launch.block = engine::baseBlockResources(engine::OpKind::GeMV, true);
    launch.grid_blocks =
        ceilDiv(shape.n, 128) * engine::BaselineTiling::gemv_split_k;
    launch.uses_tensor_cores = false;
    return finishEstimate(spec, launch, c);
}

KernelResult
ewqAttentionEstimate(const gpusim::GpuSpec &spec,
                     const engine::AttnShape &shape, unsigned kv_bits)
{
    gpusim::KernelCounters c;
    std::uint64_t kv_elems = shape.kvElements();
    // One source of truth with the pool/pricer KV sizing: packed
    // entries plus one scale/zero pair per head_dim-element group.
    std::uint64_t kv_bytes =
        llm::kvPackedBytesInt(kv_elems, kv_bits, shape.head_dim);
    c.dram_read_bytes = kv_bytes + static_cast<std::uint64_t>(
                                       shape.batch) *
                                       shape.heads * shape.head_dim * 2;
    c.dram_write_bytes = shape.outputElements() * 2;
    c.global_to_shared_bytes = kv_bytes;
    c.flops = shape.flops() +
              5ull * shape.batch * shape.heads * shape.seq_len;
    c.unpack_ops = kv_elems;
    c.smem_transactions = kv_bytes * 2 / 128;
    c.smem_ideal_transactions = c.smem_transactions;

    std::uint64_t bh = static_cast<std::uint64_t>(shape.batch) *
                       shape.heads;
    std::uint64_t blocks_t =
        ceilDiv(shape.seq_len, engine::BaselineTiling::attn_block_tokens);
    c.reduce_bytes = bh * blocks_t * (shape.head_dim + 2) * 4;

    gpusim::LaunchConfig launch;
    launch.block =
        engine::baseBlockResources(engine::OpKind::AttentionDecode, true);
    launch.grid_blocks = bh * blocks_t;
    launch.uses_tensor_cores = false;
    return finishEstimate(spec, launch, c);
}

} // namespace vqllm::kernels
