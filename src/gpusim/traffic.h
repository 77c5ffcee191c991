/**
 * @file
 * Memory-traffic and instruction counters for simulated kernels.
 *
 * These are the "performance counters" of the simulated GPU — the same
 * quantities the paper profiles in Fig. 4: global→shared traffic,
 * shared→register traffic, bank-conflict serialization, plus instruction
 * counts for compute, dequantization lookups, index unpacking and warp
 * shuffles.
 */
#pragma once

#include <cstdint>

namespace vqllm::gpusim {

/** Aggregated event counters for one kernel execution. */
struct KernelCounters
{
    /** Bytes read from off-chip DRAM (global memory). */
    std::uint64_t dram_read_bytes = 0;
    /** Bytes written to off-chip DRAM. */
    std::uint64_t dram_write_bytes = 0;

    /** Bytes moved global -> shared (subset of dram_read_bytes). */
    std::uint64_t global_to_shared_bytes = 0;
    /** Bytes moved shared -> registers. */
    std::uint64_t shared_to_reg_bytes = 0;
    /** Bytes moved registers -> shared (layout round-trips). */
    std::uint64_t reg_to_shared_bytes = 0;

    /** Shared-memory transactions after conflict serialization. */
    std::uint64_t smem_transactions = 0;
    /** Shared-memory transactions had there been no conflicts. */
    std::uint64_t smem_ideal_transactions = 0;

    /** FP16/FP32 floating point operations (FMA = 2). */
    std::uint64_t flops = 0;
    /** Codebook-entry lookups performed during dequantization. */
    std::uint64_t dequant_lookups = 0;
    /** Extra integer ops for unaligned index unpacking/decoding. */
    std::uint64_t unpack_ops = 0;
    /** Warp shuffle instructions (register-level fusion). */
    std::uint64_t shuffle_ops = 0;

    /** Bytes exchanged through a global-memory reduction stage. */
    std::uint64_t reduce_bytes = 0;

    /** Accumulate another counter set into this one. */
    KernelCounters &
    operator+=(const KernelCounters &o)
    {
        dram_read_bytes += o.dram_read_bytes;
        dram_write_bytes += o.dram_write_bytes;
        global_to_shared_bytes += o.global_to_shared_bytes;
        shared_to_reg_bytes += o.shared_to_reg_bytes;
        reg_to_shared_bytes += o.reg_to_shared_bytes;
        smem_transactions += o.smem_transactions;
        smem_ideal_transactions += o.smem_ideal_transactions;
        flops += o.flops;
        dequant_lookups += o.dequant_lookups;
        unpack_ops += o.unpack_ops;
        shuffle_ops += o.shuffle_ops;
        reduce_bytes += o.reduce_bytes;
        return *this;
    }

    /** @return average bank-conflict multiplier over shared accesses. */
    double
    conflictMultiplier() const
    {
        if (smem_ideal_transactions == 0)
            return 1.0;
        return static_cast<double>(smem_transactions) /
               static_cast<double>(smem_ideal_transactions);
    }
};

} // namespace vqllm::gpusim
