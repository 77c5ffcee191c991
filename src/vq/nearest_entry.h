/**
 * @file
 * Exact nearest-entry search over a centroid table — the one search
 * behind k-means assignment and plain-codebook encoding.
 *
 * The index keeps one copy of each distinct entry (a later slot with
 * the same bits can never win) and stores the copies contiguously,
 * sorted by their projection on the table's principal axis.  A query
 * starts at its own projection and sweeps outward in both directions,
 * scoring entries with simd::squaredDistance until the projection gap
 * proves that no unscored entry can win.  The answer is bit-identical
 * to a linear scan that keeps the first strict minimum (see nearest()
 * and the exactness argument in nearest_entry.cc).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace vqllm::vq {

/** Projection-sorted search index over one [k, dim] float table. */
class NearestEntryIndex
{
  public:
    /** A search result: the winning slot and its float distance. */
    struct Match
    {
        std::uint32_t index = 0;
        float distance = 0;
    };

    NearestEntryIndex() = default;

    /**
     * Index `table` ([k, dim], k >= 1).  The index copies the distinct
     * entries it sweeps and never points into the table, so the owner
     * may be copied or moved; queries pass the same table again (a
     * table with a non-finite entry is scanned in place).
     */
    explicit NearestEntryIndex(const Tensor<float> &table);

    /**
     * Nearest entry of `table` to `query[0..dim)`.
     *
     * Returns the minimum of (simd::squaredDistance, slot) over the
     * entries with a finite distance, which is the first strict minimum
     * of a linear scan started from +inf; (0, +inf) if no distance is
     * finite.
     *
     * @param table  the table this index was built from, unchanged
     * @param scored if non-null, receives the number of entries scored
     *               (distinct entries only, unless the scan is linear)
     */
    Match nearest(const Tensor<float> &table, const float *query,
                  std::size_t *scored = nullptr) const;

  private:
    std::size_t k_ = 0;
    std::size_t dim_ = 0;
    /** Some entry is non-finite: every query takes the linear scan. */
    bool linear_ = true;
    /** Unit principal axis of the table. */
    std::vector<double> axis_;
    /** Projections on axis_ of the distinct entries, ascending. */
    std::vector<double> proj_;
    /** slot_[i] = lowest table slot holding the entry of proj_[i]. */
    std::vector<std::uint32_t> slot_;
    /** [proj_.size(), dim] copy of those entries, in proj_ order. */
    std::vector<float> entries_;
    /** Largest sum_d |axis_d * c_d| over entries (rounding bound). */
    double maxAbsTerms_ = 0;
};

} // namespace vqllm::vq
