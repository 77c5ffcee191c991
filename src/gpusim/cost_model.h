/**
 * @file
 * Roofline-style latency model for simulated kernels.
 *
 * Given a launch shape (grid size + per-block resources), event counters,
 * and a GPU spec, the model computes per-pipe times and takes the maximum
 * (pipes overlap on a GPU), then adds launch overhead and the global-
 * reduction stage if present:
 *
 *   T = max(T_dram, T_smem, T_compute, T_latency_bound)
 *       + T_launch + T_reduce_pass
 *
 * - T_dram: DRAM bytes / effective bandwidth.  Effective bandwidth scales
 *   with achieved occupancy and grid fill (a memory-bound kernel needs
 *   enough resident warps to cover DRAM latency).
 * - T_smem: shared-memory transactions (after bank-conflict
 *   serialization) / aggregate LDS throughput.
 * - T_compute: FMA flops on the matching pipe plus scalar overhead for
 *   dequantization lookups, index unpacking and shuffles.
 * - T_latency_bound: when parallelism is too small to fill the machine,
 *   latency chains dominate; modeled from per-access latencies.
 *
 * Absolute numbers are model outputs, not silicon measurements; all
 * paper comparisons are relative, which this model preserves (see
 * DESIGN.md Sec. 2).
 */
#pragma once

#include <cstdint>

#include "gpusim/gpu_spec.h"
#include "gpusim/occupancy.h"
#include "gpusim/traffic.h"

namespace vqllm::gpusim {

/** Grid-level launch description. */
struct LaunchConfig
{
    /** Total thread blocks in the grid. */
    std::uint64_t grid_blocks = 1;
    /** Per-block resource demands. */
    BlockResources block;
    /** Whether the FMA work runs on tensor cores (mma) or CUDA cores. */
    bool uses_tensor_cores = false;
};

/** Decomposed latency estimate, microseconds. */
struct LatencyBreakdown
{
    double dram_us = 0;
    double smem_us = 0;
    double compute_us = 0;
    double latency_bound_us = 0;
    double reduce_us = 0;
    double launch_us = 0;
    /** Final modeled latency. */
    double total_us = 0;
    /** Occupancy used for throughput derating. */
    OccupancyResult occupancy;
    /** Fraction of SMs kept busy by the grid (wave quantization). */
    double grid_fill = 1.0;
    /** Achieved fraction of peak memory throughput (SM-utilization
     *  proxy, the paper's Fig. 4 counter). */
    double throughput_factor = 1.0;
};

/**
 * Estimate the latency of one kernel.  The model's calibration
 * (saturation occupancies, memory-level parallelism, scalar issue
 * costs, pipe efficiencies) is a set of constants in cost_model.cc.
 *
 * @param spec      target GPU
 * @param launch    grid + block shape
 * @param counters  aggregated event counters for the whole grid
 * @return per-pipe breakdown and total latency in microseconds
 */
LatencyBreakdown estimateLatency(const GpuSpec &spec,
                                 const LaunchConfig &launch,
                                 const KernelCounters &counters);

} // namespace vqllm::gpusim
