#include "gpusim/occupancy.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/logging.h"

namespace vqllm::gpusim {

namespace {

/** Registers consumed per block after warp-granularity rounding. */
std::size_t
regsPerBlock(const GpuSpec &spec, const BlockResources &block)
{
    int warps = static_cast<int>(
        ceilDiv(static_cast<std::uint64_t>(block.threads), spec.warp_size));
    std::size_t per_warp =
        roundUp(static_cast<std::uint64_t>(block.regs_per_thread) *
                    spec.warp_size,
                spec.reg_alloc_granularity);
    return per_warp * warps;
}

/** Shared-memory bytes consumed per block after granularity rounding. */
std::size_t
smemPerBlock(const GpuSpec &spec, const BlockResources &block)
{
    return roundUp(block.smem_bytes, spec.smem_alloc_granularity);
}

} // namespace

OccupancyResult
computeOccupancy(const GpuSpec &spec, const BlockResources &block)
{
    vqllm_assert(block.threads > 0, "block must have threads");
    OccupancyResult res;

    if (block.smem_bytes > spec.max_smem_per_block ||
        block.regs_per_thread > spec.max_regs_per_thread ||
        block.threads > spec.max_threads_per_sm) {
        return res; // unlaunchable: blocks_per_sm = 0
    }

    int warps_per_block = static_cast<int>(
        ceilDiv(static_cast<std::uint64_t>(block.threads), spec.warp_size));
    int max_warps = spec.max_threads_per_sm / spec.warp_size;

    constexpr int unbounded = 1 << 28;
    int by_threads = max_warps / warps_per_block;

    std::size_t smem = smemPerBlock(spec, block);
    int by_smem = smem == 0 ? unbounded
                            : static_cast<int>(spec.smem_per_sm / smem);

    std::size_t regs = regsPerBlock(spec, block);
    int by_regs = regs == 0 ? unbounded
                            : static_cast<int>(spec.regs_per_sm / regs);

    int by_slots = spec.max_blocks_per_sm;

    res.blocks_per_sm =
        std::min(std::min(by_threads, by_smem), std::min(by_regs, by_slots));
    if (res.blocks_per_sm <= 0) {
        res.blocks_per_sm = 0;
        res.limiter = smem > spec.smem_per_sm
                          ? OccupancyLimiter::SharedMemory
                          : OccupancyLimiter::Registers;
        return res;
    }

    // Identify the binding limit (ties resolved in a fixed order so the
    // result is deterministic and tests can rely on it).
    if (res.blocks_per_sm == by_smem) {
        res.limiter = OccupancyLimiter::SharedMemory;
    } else if (res.blocks_per_sm == by_regs) {
        res.limiter = OccupancyLimiter::Registers;
    } else if (res.blocks_per_sm == by_threads) {
        res.limiter = OccupancyLimiter::Threads;
    } else {
        res.limiter = OccupancyLimiter::BlockSlots;
    }

    res.warps_per_sm = res.blocks_per_sm * warps_per_block;
    res.occupancy =
        static_cast<double>(res.warps_per_sm) / static_cast<double>(max_warps);
    return res;
}

ResourceSlack
computeSlack(const GpuSpec &spec, const BlockResources &block)
{
    ResourceSlack slack;
    OccupancyResult base = computeOccupancy(spec, block);
    if (base.blocks_per_sm == 0)
        return slack;

    int blocks = base.blocks_per_sm;

    // Shared memory: the per-block budget at `blocks` residency is
    // smem_per_sm / blocks; anything up to that keeps occupancy intact.
    std::size_t smem_budget = spec.smem_per_sm / blocks;
    std::size_t smem_now = roundUp(block.smem_bytes,
                                   spec.smem_alloc_granularity);
    if (smem_budget > smem_now) {
        std::size_t cap = std::min(smem_budget, spec.max_smem_per_block);
        slack.smem_bytes = cap > smem_now ? cap - smem_now : 0;
        // Round down to the allocation granularity: a partial granule
        // would be rounded up at allocation time and could lose a block.
        slack.smem_bytes -= slack.smem_bytes % spec.smem_alloc_granularity;
    }

    // Registers: per-warp budget at `blocks` residency.
    int warps_per_block = static_cast<int>(
        ceilDiv(static_cast<std::uint64_t>(block.threads), spec.warp_size));
    std::size_t regs_per_warp_budget =
        spec.regs_per_sm / (static_cast<std::size_t>(blocks) *
                            warps_per_block);
    regs_per_warp_budget -= regs_per_warp_budget % spec.reg_alloc_granularity;
    int regs_per_thread_budget = static_cast<int>(
        std::min<std::size_t>(regs_per_warp_budget / spec.warp_size,
                              spec.max_regs_per_thread));
    if (regs_per_thread_budget > block.regs_per_thread)
        slack.regs_per_thread = regs_per_thread_budget -
                                block.regs_per_thread;

    return slack;
}

} // namespace vqllm::gpusim
