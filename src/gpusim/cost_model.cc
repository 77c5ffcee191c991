#include "gpusim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vqllm::gpusim {

namespace {

/** Occupancy at which DRAM bandwidth saturates. */
constexpr double kBwSaturationOccupancy = 0.14;
/** Occupancy at which the compute pipes saturate (mainloop software
 *  pipelining needs resident warps to cover latencies). */
constexpr double kComputeSaturationOccupancy = 0.33;
/** Outstanding memory requests per warp (latency overlap via ILP). */
constexpr double kMlpPerWarp = 4.0;
/** Fraction of scalar issue slots usable by overhead instructions. */
constexpr double kScalarIssueFraction = 0.5;
/** Cycles per dequantization lookup (address calc + bounds test). */
constexpr double kCyclesPerLookup = 2.0;
/** Cycles per unaligned-index unpack step. */
constexpr double kCyclesPerUnpack = 3.0;
/** Cycles per warp shuffle instruction. */
constexpr double kCyclesPerShuffle = 2.0;
/** Efficiency of the tensor-core pipe on realistic tiles. */
constexpr double kTensorCoreEfficiency = 0.75;
/** Efficiency of the CUDA-core FMA pipe. */
constexpr double kCudaCoreEfficiency = 0.7;

} // namespace

LatencyBreakdown
estimateLatency(const GpuSpec &spec, const LaunchConfig &launch,
                const KernelCounters &counters)
{
    LatencyBreakdown out;
    out.occupancy = computeOccupancy(spec, launch.block);
    if (out.occupancy.blocks_per_sm == 0) {
        vqllm_warn("unlaunchable block shape: smem=",
                   launch.block.smem_bytes,
                   " regs=", launch.block.regs_per_thread);
        out.total_us = 1e12;
        return out;
    }

    // Wave quantization: how full is the machine across the grid's waves?
    double blocks_capacity =
        static_cast<double>(out.occupancy.blocks_per_sm) * spec.num_sms;
    double waves = static_cast<double>(launch.grid_blocks) / blocks_capacity;
    double full_waves = std::floor(waves);
    double frac = waves - full_waves;
    // Average machine fill over all waves (the tail wave is only
    // fractionally occupied).
    out.grid_fill = waves > 0 ? (full_waves + frac * frac) / std::max(1.0,
                                    std::ceil(waves))
                              : 0.0;
    // A grid smaller than one SM's worth cannot use every SM.
    double sm_fill = std::min(
        1.0, static_cast<double>(launch.grid_blocks) / spec.num_sms);

    // --- DRAM pipe -------------------------------------------------------
    // Bandwidth derates when too few warps are resident to cover DRAM
    // latency, and when the grid leaves SMs idle.
    double occ_factor = std::min(
        1.0, out.occupancy.occupancy / kBwSaturationOccupancy);
    out.throughput_factor = occ_factor;
    double eff_bw = spec.dramBytesPerSecond() * spec.dram_efficiency *
                    occ_factor * std::max(sm_fill, 0.05);
    double dram_bytes = static_cast<double>(counters.dram_read_bytes +
                                            counters.dram_write_bytes);
    out.dram_us = dram_bytes / eff_bw * 1e6;

    // --- Shared-memory pipe ---------------------------------------------
    // Transactions are 128-byte warp-wide accesses (32 lanes x 4B).
    double active_sms = std::max(1.0, spec.num_sms * sm_fill);
    double smem_bytes_per_s =
        active_sms * spec.smem_bytes_per_cycle * spec.clockHz();
    double smem_bytes = static_cast<double>(counters.smem_transactions) *
                        (spec.smem_banks * 4.0);
    out.smem_us = smem_bytes / smem_bytes_per_s * 1e6;

    // --- Compute pipe -----------------------------------------------------
    double fma_tflops =
        launch.uses_tensor_cores
            ? spec.fp16_tensor_tflops * kTensorCoreEfficiency
            : spec.fp16CudaTflops() * kCudaCoreEfficiency;
    // Low occupancy also starves the compute pipes.
    double compute_occ = std::min(
        1.0, out.occupancy.occupancy / kComputeSaturationOccupancy);
    double fma_s = static_cast<double>(counters.flops) /
                   (fma_tflops * 1e12 * std::max(sm_fill, 0.05) *
                    compute_occ);
    double scalar_cycles =
        static_cast<double>(counters.dequant_lookups) * kCyclesPerLookup +
        static_cast<double>(counters.unpack_ops) * kCyclesPerUnpack +
        static_cast<double>(counters.shuffle_ops) * kCyclesPerShuffle;
    // Scalar overhead executes warp-wide: issue_per_cycle lanes per SM.
    double scalar_s = scalar_cycles /
                      (active_sms * spec.issue_per_cycle *
                       kScalarIssueFraction * spec.clockHz() *
                       compute_occ);
    out.compute_us = (fma_s + scalar_s) * 1e6;

    // --- Latency-bound term ------------------------------------------------
    // With W resident warps per SM, each long-latency access is overlapped
    // by other warps; the residual serialization per access is
    // latency / W.  This term dominates for tiny grids (paper Sec. VII-B,
    // the Llama-7B 1k/BS1 attention case).
    double resident_warps =
        std::max(1.0, static_cast<double>(out.occupancy.warps_per_sm) *
                          std::max(sm_fill, 1.0 / spec.num_sms));
    double accesses_per_sm =
        (dram_bytes / 128.0) / std::max(1.0, active_sms);
    out.latency_bound_us = accesses_per_sm * spec.dram_latency_cycles /
                           (resident_warps * kMlpPerWarp) /
                           spec.clockHz() * 1e6 /
                           out.occupancy.blocks_per_sm;

    // --- Reduction stage ----------------------------------------------------
    // Global reductions re-read and re-write partial outputs through DRAM
    // in a short second pass (or atomics with similar traffic).
    if (counters.reduce_bytes > 0) {
        double reduce_bw = spec.dramBytesPerSecond() * spec.dram_efficiency;
        out.reduce_us = static_cast<double>(counters.reduce_bytes) * 2.0 /
                            reduce_bw * 1e6 +
                        spec.launch_overhead_us * 0.5;
    }

    out.launch_us = spec.launch_overhead_us;
    out.total_us = std::max({out.dram_us, out.smem_us, out.compute_us,
                             out.latency_bound_us}) +
                   out.reduce_us + out.launch_us;
    return out;
}

} // namespace vqllm::gpusim
