/**
 * @file
 * CUDA-style occupancy calculation and resource-slack analysis.
 *
 * Occupancy (resident thread blocks per SM) is limited by four resources:
 * threads, shared memory, registers, and the hardware block limit.  The
 * codebook cache's adaptive placement heuristic (paper Sec. V-B, Fig. 10)
 * sizes its register/shared-memory footprint to the *slack*: the largest
 * additional allocation that leaves the limiting resource — and therefore
 * occupancy — unchanged.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "gpusim/gpu_spec.h"

namespace vqllm::gpusim {

/** Per-thread-block resource demands of a kernel. */
struct BlockResources
{
    /** Threads per block (multiple of warp size preferred). */
    int threads = 128;
    /** Static + dynamic shared memory per block, bytes. */
    std::size_t smem_bytes = 0;
    /** Registers per thread. */
    int regs_per_thread = 32;
};

/** Which resource bounds the number of resident blocks. */
enum class OccupancyLimiter {
    Threads,
    SharedMemory,
    Registers,
    BlockSlots,
};

/** Result of an occupancy computation. */
struct OccupancyResult
{
    /** Resident blocks per SM (0 means the block cannot launch). */
    int blocks_per_sm = 0;
    /** Resident warps per SM. */
    int warps_per_sm = 0;
    /** Occupancy = resident warps / max warps. */
    double occupancy = 0.0;
    /** The binding resource. */
    OccupancyLimiter limiter = OccupancyLimiter::BlockSlots;
};

/** Unused-resource headroom that can be consumed without hurting occupancy. */
struct ResourceSlack
{
    /** Extra shared-memory bytes per block at unchanged occupancy. */
    std::size_t smem_bytes = 0;
    /** Extra registers per thread at unchanged occupancy. */
    int regs_per_thread = 0;
};

/**
 * Compute resident blocks per SM and occupancy for a block shape.
 *
 * Mirrors the CUDA occupancy calculator: each limit is computed
 * independently with the hardware allocation granularities, and the
 * minimum wins.
 */
OccupancyResult computeOccupancy(const GpuSpec &spec,
                                 const BlockResources &block);

/**
 * Compute the resource slack of a kernel (paper Fig. 10).
 *
 * The returned shared-memory/register headroom is the largest extra
 * allocation for which computeOccupancy() still returns the same
 * blocks_per_sm.  Either component may be zero when the corresponding
 * resource is the occupancy limiter.
 */
ResourceSlack computeSlack(const GpuSpec &spec, const BlockResources &block);

} // namespace vqllm::gpusim
