/**
 * @file
 * K-means clustering — the training core of every VQ algorithm
 * (paper Sec. II-A: "this cross-element information is gathered through
 * clustering ... using cluster centroids to represent nearby vectors").
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace vqllm::vq {

/** Relative inertia improvement below which Lloyd iteration stops. */
inline constexpr double kKMeansTolerance = 1e-4;

/** Options controlling a k-means run. */
struct KMeansOptions
{
    /** Maximum Lloyd iterations. */
    int max_iters = 25;
    /** RNG seed (k-means++ initialization and empty-cluster reseeding). */
    std::uint64_t seed = 0x5eedu;
    /**
     * If positive and smaller than the dataset, fit on a deterministic
     * subsample of this many rows (kMeans' final assignment still covers
     * all rows).  Keeps paper-scale tensors trainable on the host.
     */
    std::size_t sample_limit = 0;
};

/** Result of a k-means run. */
struct KMeansResult
{
    /** [k, dim] cluster centroids. */
    Tensor<float> centroids;
    /** Cluster index per input row. */
    std::vector<std::uint32_t> assignments;
    /**
     * Sum over all input rows of the squared distance to the assigned
     * centroid, taken from the final assignment (so it matches
     * `centroids` and `assignments`, sampled fit or not).
     */
    double inertia = 0;
    /** Lloyd iterations actually executed. */
    int iterations = 0;
};

/**
 * Run k-means with k-means++ initialization: the Lloyd fit of
 * kMeansCentroids(), then one assignment of every row of `data`.
 *
 * @param data [n, dim] input rows
 * @param k    number of clusters (1 <= k; if k >= n, centroids replicate
 *             data rows)
 * @param opts options (determinism is guaranteed for fixed opts.seed)
 */
KMeansResult kMeans(const Tensor<float> &data, std::size_t k,
                    const KMeansOptions &opts = KMeansOptions{});

/**
 * The Lloyd fit alone: the centroids kMeans() returns for the same
 * arguments, without assigning the full data to them.  For callers that
 * encode against the centroids themselves (the quantizer).
 */
Tensor<float> kMeansCentroids(const Tensor<float> &data, std::size_t k,
                              const KMeansOptions &opts = KMeansOptions{});

/**
 * Assign each row of `data` to the nearest centroid.
 *
 * @return per-row centroid indices
 */
std::vector<std::uint32_t> assignToNearest(const Tensor<float> &data,
                                           const Tensor<float> &centroids);

/** @return squared Euclidean distance between row `a` of A and `b` of B. */
double rowDistanceSq(const Tensor<float> &A, std::size_t a,
                     const Tensor<float> &B, std::size_t b);

namespace detail {

/**
 * One D^2 pass of k-means++ initialization: lower `dist_sq[i]` to the
 * squared distance from row i of `data` to `centroid` for every row in
 * `live` (ascending row indices), drop the rows that reach 0 from
 * `live`, and return the D^2 total.  The total folds per-chunk partials
 * (256-row chunks of the row index, each summed in row order) in chunk
 * order, the order par::parallelSum folds them, so it has the bits of a
 * pooled reduction at any thread count.  Rows not in `live` are at 0
 * and add nothing.
 */
double kMeansPlusPlusPass(const Tensor<float> &data, const float *centroid,
                          std::vector<double> &dist_sq,
                          std::vector<std::size_t> &live);

} // namespace detail

} // namespace vqllm::vq
