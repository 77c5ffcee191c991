/**
 * @file
 * Vector-quantization algorithm configurations (paper Tbl. I / Tbl. II).
 *
 * A VQ algorithm is described by VQ<vector_size, log2(#entries),
 * residuals> plus a *codebook scope* saying which part of the tensor each
 * codebook is trained on — the property that determines codebook-switch
 * axes (Tbl. III) and duplicated-load traffic (Sec. III-B).
 */
#pragma once

#include <compare>
#include <cstddef>
#include <string>

#include "common/bitutils.h"

namespace vqllm::vq {

/** Which slice of the tensor shares one codebook. */
enum class CodebookScope {
    /** One codebook (per residual) for the whole tensor (QuiP#, AQLM). */
    PerTensor,
    /** One codebook per (tile_rows x tile_cols) weight tile (GPTVQ). */
    PerTile,
    /** One codebook per group of `vector_size` channels (CQ KV cache). */
    PerChannelGroup,
};

/** Complete description of a VQ algorithm configuration. */
struct VQConfig
{
    /** Human-readable name, e.g. "CQ-2". */
    std::string name;
    /** Elements quantized at once (sub-vector length). */
    unsigned vector_size = 4;
    /** Codebook entries (quantization points) per codebook. */
    std::size_t num_entries = 256;
    /** Number of residual quantization stages (1 = no residual). */
    unsigned residuals = 1;
    /** Tensor slice sharing a codebook. */
    CodebookScope scope = CodebookScope::PerTensor;
    /**
     * Lattice-structured codebook (QuiP#): num_entries logical entries
     * are generated from `lattice_base_entries` stored entries plus sign
     * bit-operations, so dequantization only ever touches the base table.
     */
    bool lattice = false;
    /** Stored entries when lattice is true. */
    std::size_t lattice_base_entries = 256;

    /** @return bits per stored index. */
    unsigned
    indexBits() const
    {
        return ceilLog2(num_entries);
    }

    /** @return equivalent quantized bits per original element. */
    double
    bitsPerElement() const
    {
        return static_cast<double>(indexBits()) * residuals / vector_size;
    }

    /** @return compressed size / FP16 size (e.g. 0.125 for 2-bit). */
    double
    compressionRatio() const
    {
        return bitsPerElement() / 16.0;
    }

    /** @return bytes of one *stored* codebook entry (FP16 elements). */
    std::size_t
    entryBytes() const
    {
        return static_cast<std::size_t>(vector_size) * 2;
    }

    /** @return entries physically stored per codebook. */
    std::size_t
    storedEntries() const
    {
        return lattice ? lattice_base_entries : num_entries;
    }

    /** @return bytes of one stored codebook (entries x entry bytes). */
    std::size_t
    codebookBytes() const
    {
        return storedEntries() * entryBytes();
    }

    /** @return "VQ<v,b,r>" notation used throughout the paper. */
    std::string notation() const;

    /** Member-wise, in declaration order (the compiler's cache key
     *  orders by it). */
    auto operator<=>(const VQConfig &) const = default;
};

/** QuiP#-4: VQ<8,16,2>, lattice codebook, per-tensor scope, 4-bit. */
VQConfig quip4();

/** AQLM-3: VQ<8,12,2>, per-tensor scope, unaligned 12-bit indices. */
VQConfig aqlm3();

/** GPTVQ-2: VQ<4,8,1>, per-(256,256)-tile codebooks, 2-bit. */
VQConfig gptvq2();

/** CQ-4: VQ<2,8,1>, per-channel-group codebooks, 4-bit KV cache. */
VQConfig cq4();

/** CQ-2: VQ<4,8,1>, per-channel-group codebooks, 2-bit KV cache. */
VQConfig cq2();

/** All five paper configurations (Tbl. II order). */
const std::vector<VQConfig> &paperConfigs();

/** GPTVQ tile extent (one codebook per 256x256 weight tile). */
inline constexpr std::size_t kGptvqTileRows = 256;
inline constexpr std::size_t kGptvqTileCols = 256;

} // namespace vqllm::vq
