/**
 * @file
 * Offline codebook-entry access-frequency profiling (paper Sec. V).
 *
 * During dequantization every packed index is one lookup into its
 * codebook, so the access histogram of a quantized tensor *is* the
 * histogram of its stored indices (lattice indices collapse onto their
 * base entry).  The profiler computes global and per-block histograms —
 * the data behind paper Fig. 8 (skew), Fig. 9 (consistency across
 * blocks), and Tbl. V (#entries above mu+3sigma) — and derives the
 * frequency ordering used by the codebook cache.  Histograms are
 * immutable values built from their counts (see AccessHistogram).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "vq/quantizer.h"

namespace vqllm::vq {

/**
 * Access histogram of one codebook: an immutable value.
 *
 * The constructor derives, once, every fact the offline phase reads
 * (paper Sec. V-B, Alg. 2): the frequency order (one stable sort,
 * reused by reorderByFrequency), the counts in that order, the total,
 * mean and population standard deviation, and the FNV-1a content
 * digest the compiler keys kernels on.  Accessors read them; nothing
 * sorts, rescans or hashes the counts again, so a cold compile against
 * a 4,096-entry book pays none of that per kernel.
 */
class AccessHistogram
{
  public:
    /** An empty histogram (no entries). */
    AccessHistogram() = default;

    /** Derive the histogram of per-entry access `counts`. */
    explicit AccessHistogram(std::vector<std::uint64_t> counts);

    /** @return access count per stored entry index. */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /** @return number of entries. */
    std::size_t size() const { return counts_.size(); }

    /** @return total accesses. */
    std::uint64_t total() const { return total_; }

    /** @return mean accesses per entry (0 when empty). */
    double mean() const { return mean_; }

    /** @return population standard deviation of accesses. */
    double stddev() const { return stddev_; }

    /** @return number of entries with count > mean + k*stddev. */
    std::size_t entriesAbove(double k_sigma) const;

    /** @return fraction of entries with count below the mean. */
    double fractionBelowMean() const;

    /**
     * @return permutation sorting entries by descending frequency
     *         (perm[new_index] = old_index; ties by old index)
     */
    const std::vector<std::uint32_t> &
    frequencyOrder() const
    {
        return order_;
    }

    /** @return counts in frequency order: counts()[frequencyOrder()[r]]
     *          at rank r, non-increasing. */
    const std::vector<std::uint64_t> &
    descendingCounts() const
    {
        return descending_;
    }

    /** @return FNV-1a digest of the counts' bytes, never 0 (0 stands
     *          for "no histogram" in keys). */
    std::uint64_t digest() const { return digest_; }

  private:
    std::vector<std::uint64_t> counts_;
    std::vector<std::uint32_t> order_;
    std::vector<std::uint64_t> descending_;
    std::uint64_t total_ = 0;
    double mean_ = 0;
    double stddev_ = 0;
    std::uint64_t digest_ = kFnv1aBasis;
};

/** Profiling results over a quantized tensor. */
struct ProfileResult
{
    /** One histogram per codebook (unit x residual, same layout). */
    std::vector<AccessHistogram> histograms;

    /**
     * Per-block histograms of codebook 0 for block-consistency analysis
     * (Fig. 9): blocks are contiguous row ranges.  Empty unless
     * profileAccesses() was given a block size.
     */
    std::vector<AccessHistogram> block_histograms;
};

/**
 * Profile entry access frequencies of a quantized tensor.
 *
 * @param qt             the quantized tensor
 * @param rows_per_block row-range granularity for the per-block
 *                       histograms of codebook 0; 0 (the default)
 *                       builds none, which saves zeroing
 *                       ceil(rows / rows_per_block) x entries counters
 *                       on every call that only needs the global ones
 */
ProfileResult profileAccesses(const QuantizedTensor &qt,
                              std::size_t rows_per_block = 0);

/**
 * Reorder all codebooks of `qt` by descending access frequency and
 * rewrite the packed indices accordingly (codebook cache step 1,
 * Sec. V-B: "the index of the most frequent entry is 0").
 *
 * @return the profile computed before reordering
 */
ProfileResult reorderByFrequency(QuantizedTensor &qt);

/**
 * Synthetic Zipf-distributed access histogram, a stand-in for offline
 * profiling when no quantized tensor is at hand (e.g. latency-model
 * sweeps at paper scale).
 *
 * @param entries codebook entries
 * @param alpha   Zipf skew exponent
 */
AccessHistogram syntheticZipfHistogram(std::size_t entries,
                                       double alpha = 1.0);

} // namespace vqllm::vq
