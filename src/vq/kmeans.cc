#include "vq/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "vq/nearest_entry.h"

namespace vqllm::vq {

double
rowDistanceSq(const Tensor<float> &A, std::size_t a, const Tensor<float> &B,
              std::size_t b)
{
    vqllm_assert(A.dim(1) == B.dim(1), "dim mismatch");
    const std::size_t dim = A.dim(1);
    return simd::squaredDistance(A.data() + a * dim, B.data() + b * dim,
                                 dim);
}

namespace {

/** Rows per assignment chunk (static layout — see common/parallel.h). */
constexpr std::size_t kAssignGrain = 256;

/**
 * Assign every row to its nearest centroid (the single assignment loop
 * behind kMeans, its Lloyd step and assignToNearest).  One search index
 * serves every chunk read-only.
 *
 * @param assign receives the per-row centroid index (size n)
 * @return total inertia, reduced in chunk order (deterministic for any
 *         thread count)
 */
double
assignRows(const Tensor<float> &data, const Tensor<float> &centroids,
           std::vector<std::uint32_t> &assign)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    const NearestEntryIndex index(centroids);
    return par::parallelSum<double>(
        n, kAssignGrain, [&](const par::ChunkRange &c) {
            double inertia = 0;
            for (std::size_t i = c.begin; i < c.end; ++i) {
                auto m = index.nearest(centroids, data.data() + i * dim);
                // The assignment scan has always started from FLT_MAX:
                // with no distance below it, a row goes to centroid 0
                // at FLT_MAX.
                if (!(m.distance < std::numeric_limits<float>::max()))
                    m = {0, std::numeric_limits<float>::max()};
                assign[i] = m.index;
                inertia += m.distance;
            }
            return inertia;
        });
}

} // namespace

double
detail::kMeansPlusPlusPass(const Tensor<float> &data, const float *centroid,
                           std::vector<double> &dist_sq,
                           std::vector<std::size_t> &live)
{
    // A pass over the fit rows is a few microseconds, less than a pool
    // dispatch costs, and k-means++ makes up to k of them in sequence:
    // run it inline, folding per-chunk partials in chunk order exactly
    // as par::parallelSum does, so the total is the same bits.
    const std::size_t dim = data.dim(1);
    double total = 0, part = 0;
    std::size_t kept = 0, chunk_end = 0;
    for (std::size_t i : live) {
        if (i >= chunk_end) {
            total += part;
            part = 0;
            chunk_end = (i / kAssignGrain + 1) * kAssignGrain;
        }
        double d = simd::squaredDistance(data.data() + i * dim, centroid,
                                         dim);
        dist_sq[i] = std::min(dist_sq[i], d);
        part += dist_sq[i];
        if (dist_sq[i] > 0)
            live[kept++] = i;
    }
    total += part;
    live.resize(kept);
    return total;
}

namespace {

/** Pick initial centroids with k-means++ (D^2 weighting). */
Tensor<float>
kMeansPlusPlusInit(const Tensor<float> &data, std::size_t k, Rng &rng)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    Tensor<float> centroids({k, dim});

    std::size_t first = rng.uniformInt(n);
    for (std::size_t d = 0; d < dim; ++d)
        centroids.at(std::size_t(0), d) = data.at(first, d);

    std::vector<double> dist_sq(n, std::numeric_limits<double>::max());
    // The rows whose D^2 weight is still above 0, ascending.  A row at 0
    // stays at 0 (min() keeps it), adds +0.0 to every partial and to the
    // pick's running sum, and is never the first row with r < acc, so
    // both passes visit live rows only and get the bits a pass over
    // every row gets.  Once none is live, every row sits on a chosen
    // centroid and the draws are uniform (the RNG stream is unchanged).
    std::vector<std::size_t> live(n);
    std::iota(live.begin(), live.end(), std::size_t{0});
    for (std::size_t c = 1; c < k; ++c) {
        // Update distances against the last added centroid.
        const double total = detail::kMeansPlusPlusPass(
            data, centroids.data() + (c - 1) * dim, dist_sq, live);
        std::size_t chosen;
        if (live.empty()) {
            chosen = rng.uniformInt(n); // every weight is 0
        } else {
            double r = rng.uniform() * total;
            double acc = 0;
            chosen = n - 1;
            for (std::size_t i : live) {
                acc += dist_sq[i];
                if (r < acc) {
                    chosen = i;
                    break;
                }
            }
        }
        for (std::size_t d = 0; d < dim; ++d)
            centroids.at(c, d) = data.at(chosen, d);
    }
    return centroids;
}

/** Deterministically subsample `limit` rows of data. */
Tensor<float>
subsample(const Tensor<float> &data, std::size_t limit, Rng &rng)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    Tensor<float> out({limit, dim});
    for (std::size_t i = 0; i < limit; ++i) {
        std::size_t src = rng.uniformInt(n);
        for (std::size_t d = 0; d < dim; ++d)
            out.at(i, d) = data.at(src, d);
    }
    return out;
}

/** Lloyd fit: centroids and iterations, without a final assignment. */
struct LloydFit
{
    Tensor<float> centroids;
    int iterations = 0;
};

LloydFit
lloydFit(const Tensor<float> &data, std::size_t k, const KMeansOptions &opts)
{
    vqllm_assert(data.rank() == 2, "k-means expects [n, dim] data");
    vqllm_assert(k >= 1, "k must be positive");
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    vqllm_assert(n >= 1, "k-means needs at least one row");

    Rng rng(opts.seed);

    // Optionally fit on a subsample for paper-scale tensors.
    const bool sampled = opts.sample_limit > 0 && opts.sample_limit < n;
    Tensor<float> fit_storage;
    if (sampled)
        fit_storage = subsample(data, opts.sample_limit, rng);
    const Tensor<float> &fit = sampled ? fit_storage : data;
    const std::size_t fn = fit.dim(0);

    LloydFit res;
    res.centroids = kMeansPlusPlusInit(fit, k, rng);

    std::vector<std::uint32_t> fit_assign(fn, 0);
    double prev_inertia = std::numeric_limits<double>::max();

    for (int iter = 0; iter < opts.max_iters; ++iter) {
        res.iterations = iter + 1;
        // Assignment step (parallel; deterministic chunk-order reduce).
        double inertia = assignRows(fit, res.centroids, fit_assign);

        // Update step (double accumulation for stability; serial — it
        // is O(n*dim) against the assignment's search).
        std::vector<double> sums(k * dim, 0.0);
        std::vector<std::size_t> counts(k, 0);
        for (std::size_t i = 0; i < fn; ++i) {
            std::uint32_t c = fit_assign[i];
            ++counts[c];
            for (std::size_t d = 0; d < dim; ++d)
                sums[c * dim + d] += fit.at(i, d);
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Reseed an empty cluster at a random data row.
                std::size_t src = rng.uniformInt(fn);
                for (std::size_t d = 0; d < dim; ++d)
                    res.centroids.at(c, d) = fit.at(src, d);
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d)
                res.centroids.at(c, d) = static_cast<float>(
                    sums[c * dim + d] / static_cast<double>(counts[c]));
        }

        if (prev_inertia < std::numeric_limits<double>::max()) {
            double rel = (prev_inertia - inertia) /
                         std::max(prev_inertia, 1e-30);
            if (rel >= 0 && rel < kKMeansTolerance)
                break;
        }
        prev_inertia = inertia;
    }
    return res;
}

} // namespace

std::vector<std::uint32_t>
assignToNearest(const Tensor<float> &data, const Tensor<float> &centroids)
{
    std::vector<std::uint32_t> assign(data.dim(0), 0);
    assignRows(data, centroids, assign);
    return assign;
}

Tensor<float>
kMeansCentroids(const Tensor<float> &data, std::size_t k,
                const KMeansOptions &opts)
{
    return std::move(lloydFit(data, k, opts).centroids);
}

KMeansResult
kMeans(const Tensor<float> &data, std::size_t k, const KMeansOptions &opts)
{
    LloydFit fit = lloydFit(data, k, opts);
    KMeansResult res;
    res.assignments.assign(data.dim(0), 0);
    res.inertia = assignRows(data, fit.centroids, res.assignments);
    res.centroids = std::move(fit.centroids);
    res.iterations = fit.iterations;
    return res;
}

} // namespace vqllm::vq
