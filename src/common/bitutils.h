/**
 * @file
 * Bit-level packing helpers for quantized index streams.
 *
 * VQ algorithms store per-vector codebook indices with arbitrary bit
 * widths (8-bit for 256-entry books, 12-bit for AQLM-style 4096-entry
 * books, 16-bit for QuiP#-style lattice books).  The packer writes indices
 * back-to-back with no alignment padding, exactly like the storage format
 * whose "unaligned 12-bit" decode cost the paper calls out for AQLM-3.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace vqllm {

/** A densely bit-packed stream of fixed-width unsigned integers. */
class BitStream
{
  public:
    /**
     * @param bits_per_value width of each stored value, in [1, 32]
     */
    explicit BitStream(unsigned bits_per_value)
        : bitsPerValue_(bits_per_value)
    {
        vqllm_assert(bits_per_value >= 1 && bits_per_value <= 32,
                     "bits_per_value=", bits_per_value);
    }

    /** Append one value (must fit in bits_per_value bits). */
    void
    push(std::uint32_t value)
    {
        if (bitsPerValue_ < 32) {
            vqllm_assert(value < (1u << bitsPerValue_),
                         "value ", value, " exceeds ", bitsPerValue_,
                         " bits");
        }
        std::size_t bit_pos = count_ * bitsPerValue_;
        std::size_t end_bit = bit_pos + bitsPerValue_;
        if ((end_bit + 7) / 8 > bytes_.size())
            bytes_.resize((end_bit + 7) / 8, 0);
        for (unsigned b = 0; b < bitsPerValue_; ++b) {
            if (value & (1u << b))
                bytes_[(bit_pos + b) / 8] |=
                    static_cast<std::uint8_t>(1u << ((bit_pos + b) % 8));
        }
        ++count_;
    }

    /** @return the i-th stored value. */
    std::uint32_t
    get(std::size_t i) const
    {
        vqllm_assert(i < count_, "index ", i, " out of range ", count_);
        std::size_t bit_pos = i * bitsPerValue_;
        std::uint32_t value = 0;
        for (unsigned b = 0; b < bitsPerValue_; ++b) {
            if (bytes_[(bit_pos + b) / 8] & (1u << ((bit_pos + b) % 8)))
                value |= (1u << b);
        }
        return value;
    }

    /** @return number of stored values. */
    std::size_t size() const { return count_; }

    /** @return storage footprint in bytes (densely packed). */
    std::size_t sizeBytes() const { return bytes_.size(); }

    /** @return width of each value in bits. */
    unsigned bitsPerValue() const { return bitsPerValue_; }

    /**
     * Whether decoding value i requires crossing a 32-bit word boundary.
     * Misaligned reads model the extra unpack/decode instructions that
     * penalize 12-bit AQLM indices on real hardware.
     */
    bool
    crossesWordBoundary(std::size_t i) const
    {
        std::size_t first = i * bitsPerValue_;
        std::size_t last = first + bitsPerValue_ - 1;
        return first / 32 != last / 32;
    }

  private:
    unsigned bitsPerValue_;
    std::size_t count_ = 0;
    std::vector<std::uint8_t> bytes_;
};

/** @return ceil(log2(n)) for n >= 1. */
inline unsigned
ceilLog2(std::uint64_t n)
{
    unsigned bits = 0;
    std::uint64_t v = 1;
    while (v < n) {
        v <<= 1;
        ++bits;
    }
    return bits;
}

/** @return smallest multiple of `align` that is >= value. */
inline std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) / align * align;
}

/** @return ceil(a / b) for b > 0. */
inline std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** @return true iff n is a power of two (n > 0). */
inline bool
isPowerOfTwo(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

} // namespace vqllm
