/**
 * @file
 * Codebooks: trained quantization points for VQ (paper Fig. 1).
 *
 * A plain codebook stores `num_entries` FP16 sub-vectors.  A lattice
 * codebook (QuiP#-style) exposes a much larger *logical* entry space —
 * every stored base entry expanded by per-element sign flips — while only
 * storing a small base table: "though it has 65536 entries, it only needs
 * to look up from 256 of them every dequantization with bit operations"
 * (paper Tbl. II footnote).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "vq/nearest_entry.h"

namespace vqllm::vq {

/** A VQ codebook (plain or lattice-structured). */
class Codebook
{
  public:
    Codebook() = default;

    /**
     * Build a plain codebook.
     *
     * @param entries [num_entries, vector_size] centroid table; values are
     *                rounded through FP16 to model on-device storage
     */
    static Codebook plain(const Tensor<float> &entries);

    /**
     * Build a lattice codebook from non-negative base entries.
     *
     * Logical index layout: low bits select the base entry, high
     * `vector_size` bits are a per-element sign mask.
     *
     * @param base_entries [base, vector_size]; absolute values are taken
     */
    static Codebook lattice(const Tensor<float> &base_entries);

    /** @return sub-vector length. */
    unsigned vectorSize() const { return vectorSize_; }

    /** @return addressable entries (lattice: base * 2^vector_size). */
    std::size_t logicalEntries() const { return logicalEntries_; }

    /** @return physically stored entries. */
    std::size_t storedEntries() const { return entries_.dim(0); }

    /** @return true for a lattice-structured codebook. */
    bool isLattice() const { return lattice_; }

    /** @return bytes of the stored table (FP16 elements). */
    std::size_t
    sizeBytes() const
    {
        return storedEntries() * vectorSize_ * 2;
    }

    /**
     * Decode a logical index into `out[0..vector_size)`.
     *
     * For lattice codebooks this performs the base lookup plus sign
     * bit-operations.
     */
    void decode(std::uint32_t index, float *out) const;

    /**
     * Find the logical index minimizing squared error to `sub`.
     *
     * @param sub pointer to vector_size elements
     * @param err if non-null, receives the squared error of the choice
     */
    std::uint32_t encode(const float *sub, double *err = nullptr) const;

    /**
     * @return the stored index actually fetched when decoding `index`
     *         (identity for plain books; base index for lattice books).
     *         This is what access-frequency profiling must count.
     */
    std::uint32_t
    storedIndexOf(std::uint32_t index) const
    {
        return lattice_ ? index & (static_cast<std::uint32_t>(
                                       entries_.dim(0)) -
                                   1)
                        : index;
    }

    /** @return the stored entry table. */
    const Tensor<float> &entries() const { return entries_; }

    /**
     * Reorder stored entries by a permutation (codebook-cache frequency
     * reordering, paper Sec. V-B).  `perm[new_index] = old_index`.
     * Returns the inverse map old_index -> new_index so quantized data
     * can be rewritten.
     */
    std::vector<std::uint32_t> reorder(const std::vector<std::uint32_t>
                                           &perm);

  private:
    /** Build the encode search over entries_ (after every change). */
    void buildSearch();

    Tensor<float> entries_;  // stored table [stored, vector_size]
    NearestEntryIndex search_; // over entries_ (plain books only)
    /** entries_ transposed to [vector_size][stored] in double (lattice). */
    std::vector<double> baseColumns_;
    unsigned vectorSize_ = 0;
    std::size_t logicalEntries_ = 0;
    bool lattice_ = false;
};

} // namespace vqllm::vq
