/**
 * @file
 * Static description of a simulated GPU.
 *
 * The reproduction has no physical GPU, so kernels execute against an
 * analytical machine model.  GpuSpec captures exactly the architectural
 * quantities the paper's analysis depends on: SM count and per-SM
 * shared-memory/register/thread limits (occupancy, Fig. 10), the 32-bank
 * shared memory (bank conflicts, Fig. 4), DRAM bandwidth (roofline), and
 * instruction-issue characteristics (dequantization/shuffle overhead).
 */
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vqllm::gpusim {

/** Architectural parameters of a simulated NVIDIA-style GPU. */
struct GpuSpec
{
    /** Marketing name, e.g. "RTX 4090". */
    std::string name;

    /** Number of streaming multiprocessors. */
    int num_sms = 0;

    /** Shared memory usable per SM, bytes (carve-out, not full L1). */
    std::size_t smem_per_sm = 0;

    /** Maximum shared memory a single thread block may allocate. */
    std::size_t max_smem_per_block = 0;

    /** 32-bit registers per SM. */
    std::size_t regs_per_sm = 0;

    /** Maximum resident threads per SM. */
    int max_threads_per_sm = 0;

    /** Maximum resident thread blocks per SM. */
    int max_blocks_per_sm = 0;

    /** Maximum registers addressable by one thread. */
    int max_regs_per_thread = 255;

    /** Threads per warp. */
    int warp_size = 32;

    /** Shared memory banks (4-byte wide). */
    int smem_banks = 32;

    /** Shared-memory allocation granularity, bytes. */
    std::size_t smem_alloc_granularity = 128;

    /** Register-file allocation granularity, registers per warp. */
    std::size_t reg_alloc_granularity = 256;

    /** Peak off-chip DRAM bandwidth, GB/s. */
    double dram_bw_gbps = 0;

    /** Achievable fraction of peak DRAM bandwidth for streaming loads. */
    double dram_efficiency = 0.82;

    /** Boost clock, GHz. */
    double clock_ghz = 0;

    /** Peak FP16 tensor-core throughput, TFLOP/s (FMA = 2 flops). */
    double fp16_tensor_tflops = 0;

    /** Peak FP32 CUDA-core throughput, TFLOP/s. */
    double fp32_tflops = 0;

    /** @return packed-half (HFMA2) CUDA-core throughput, TFLOP/s. */
    double
    fp16CudaTflops() const
    {
        return 2.0 * fp32_tflops;
    }

    /** Shared-memory bytes per cycle per SM (conflict-free LDS). */
    double smem_bytes_per_cycle = 128.0;

    /** Scalar instructions issued per cycle per SM (per-SM issue width). */
    double issue_per_cycle = 128.0;

    /** Average global-memory (DRAM) access latency, cycles. */
    double dram_latency_cycles = 560.0;

    /** Shared-memory access latency, cycles. */
    double smem_latency_cycles = 29.0;

    /** Register/shuffle access latency, cycles. */
    double shfl_latency_cycles = 6.0;

    /** L1 cache line / sector size for uncoalesced-access modeling. */
    std::size_t dram_sector_bytes = 32;

    /** Fixed kernel-launch overhead, microseconds. */
    double launch_overhead_us = 3.0;

    /** @return peak DRAM bandwidth in bytes/second. */
    double dramBytesPerSecond() const { return dram_bw_gbps * 1e9; }

    /** @return GPU core clock in Hz. */
    double clockHz() const { return clock_ghz * 1e9; }

    /** Member-wise exact comparison: specs differing in any field are
     *  distinct (the per-spec compiler::Engine registry keys on it). */
    auto operator<=>(const GpuSpec &) const = default;
};

/** @return an RTX 4090 (Ada, AD102) model — the paper's primary GPU. */
const GpuSpec &rtx4090();

/** @return a Tesla A40 (Ampere, GA102) model — the paper's low-BW GPU. */
const GpuSpec &teslaA40();

} // namespace vqllm::gpusim
