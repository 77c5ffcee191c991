/**
 * @file
 * Tests for k-means clustering: correctness on separable data, invariants
 * (determinism, monotone inertia), edge cases, and bit-equality with the
 * plain linear-scan Lloyd loop kept here as a test-local reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"
#include "tensor/datagen.h"
#include "vq/kmeans.h"

namespace vqllm::vq {
namespace {

/** Build n points around k well-separated centers. */
Tensor<float>
separableData(std::size_t n, std::size_t k, std::size_t dim, Rng &rng)
{
    Tensor<float> centers({k, dim});
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < dim; ++d)
            centers.at(c, d) = static_cast<float>(10.0 * c + d);
    Tensor<float> data({n, dim});
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t c = i % k;
        for (std::size_t d = 0; d < dim; ++d)
            data.at(i, d) = centers.at(c, d) +
                            static_cast<float>(rng.normal(0.0, 0.05));
    }
    return data;
}

/*
 * Reference k-means: the linear-scan Lloyd loop the library ran before
 * its nearest-entry search, kept verbatim (its chunked reductions
 * included, so convergence checks see the same sums).
 */
namespace ref {

constexpr std::size_t kAssignGrain = 256;

std::pair<std::uint32_t, double>
nearestCentroid(const float *row, const Tensor<float> &centroids)
{
    const std::size_t k = centroids.dim(0);
    const std::size_t dim = centroids.dim(1);
    float best = std::numeric_limits<float>::max();
    std::uint32_t best_c = 0;
    const float *cand = centroids.data();
    for (std::size_t c = 0; c < k; ++c, cand += dim) {
        float d = simd::squaredDistance(row, cand, dim);
        if (d < best) {
            best = d;
            best_c = static_cast<std::uint32_t>(c);
        }
    }
    return {best_c, static_cast<double>(best)};
}

double
assignRows(const Tensor<float> &data, const Tensor<float> &centroids,
           std::vector<std::uint32_t> &assign)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    return par::parallelSum<double>(
        n, kAssignGrain, [&](const par::ChunkRange &c) {
            double inertia = 0;
            for (std::size_t i = c.begin; i < c.end; ++i) {
                auto [best_c, d] =
                    nearestCentroid(data.data() + i * dim, centroids);
                assign[i] = best_c;
                inertia += d;
            }
            return inertia;
        });
}

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
    for (std::size_t c = 1; c < k; ++c) {
        const float *last = centroids.data() + (c - 1) * dim;
        double total = par::parallelSum<double>(
            n, kAssignGrain, [&](const par::ChunkRange &ch) {
                double part = 0;
                for (std::size_t i = ch.begin; i < ch.end; ++i) {
                    double d = simd::squaredDistance(
                        data.data() + i * dim, last, dim);
                    dist_sq[i] = std::min(dist_sq[i], d);
                    part += dist_sq[i];
                }
                return part;
            });
        std::size_t chosen;
        if (total <= 0) {
            chosen = rng.uniformInt(n);
        } else {
            double r = rng.uniform() * total;
            double acc = 0;
            chosen = n - 1;
            for (std::size_t i = 0; i < n; ++i) {
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

/** Centroids, assignments and iterations (inertia is not compared). */
KMeansResult
kMeans(const Tensor<float> &data, std::size_t k, const KMeansOptions &opts)
{
    const std::size_t n = data.dim(0);
    const std::size_t dim = data.dim(1);
    Rng rng(opts.seed);
    const bool sampled = opts.sample_limit > 0 && opts.sample_limit < n;
    Tensor<float> fit_storage;
    if (sampled)
        fit_storage = subsample(data, opts.sample_limit, rng);
    const Tensor<float> &fit = sampled ? fit_storage : data;
    const std::size_t fn = fit.dim(0);

    KMeansResult res;
    res.centroids = kMeansPlusPlusInit(fit, k, rng);
    std::vector<std::uint32_t> fit_assign(fn, 0);
    double prev_inertia = std::numeric_limits<double>::max();
    for (int iter = 0; iter < opts.max_iters; ++iter) {
        res.iterations = iter + 1;
        double inertia = assignRows(fit, res.centroids, fit_assign);
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
    res.assignments.assign(n, 0);
    assignRows(data, res.centroids, res.assignments);
    return res;
}

} // namespace ref

/** Bitwise equality of two float tensors (NaN payloads included). */
bool
sameBits(const Tensor<float> &a, const Tensor<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void
expectMatchesReference(const Tensor<float> &data, std::size_t k,
                       const KMeansOptions &opts, const std::string &what)
{
    const auto want = ref::kMeans(data, k, opts);
    const auto got = kMeans(data, k, opts);
    EXPECT_TRUE(sameBits(got.centroids, want.centroids)) << what;
    EXPECT_EQ(got.assignments, want.assignments) << what;
    EXPECT_EQ(got.iterations, want.iterations) << what;
    EXPECT_TRUE(sameBits(kMeansCentroids(data, k, opts), want.centroids))
        << what;
}

TEST(KMeans, RecoversSeparatedClusters)
{
    Rng rng(1);
    auto data = separableData(300, 3, 4, rng);
    auto res = kMeans(data, 3);
    // Every point sits within noise distance of its centroid.
    for (std::size_t i = 0; i < data.dim(0); ++i) {
        double d = rowDistanceSq(data, i, res.centroids,
                                 res.assignments[i]);
        EXPECT_LT(d, 0.5) << "point " << i;
    }
    // All three clusters are used.
    std::set<std::uint32_t> used(res.assignments.begin(),
                                 res.assignments.end());
    EXPECT_EQ(used.size(), 3u);
}

TEST(KMeans, DeterministicForSeed)
{
    Rng rng(2);
    auto data = generateClustered(200, 4, ClusteredDataSpec{}, rng);
    auto a = kMeans(data, 16);
    auto b = kMeans(data, 16);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
    EXPECT_EQ(maxAbsDiff(a.centroids, b.centroids), 0.0);
}

TEST(KMeans, MoreClustersLowerInertia)
{
    Rng rng(3);
    auto data = generateClustered(400, 4, ClusteredDataSpec{}, rng);
    double prev = 1e30;
    for (std::size_t k : {2, 8, 32, 128}) {
        auto res = kMeans(data, k);
        EXPECT_LE(res.inertia, prev * 1.001) << "k=" << k;
        prev = res.inertia;
    }
}

TEST(KMeans, SingleClusterIsMean)
{
    Rng rng(4);
    Tensor<float> data({50, 3});
    fillNormal(data, rng);
    auto res = kMeans(data, 1);
    for (std::size_t d = 0; d < 3; ++d) {
        double mean = 0;
        for (std::size_t i = 0; i < 50; ++i)
            mean += data.at(i, d);
        mean /= 50;
        EXPECT_NEAR(res.centroids.at(std::size_t(0), d), mean, 1e-4);
    }
}

TEST(KMeans, KLargerThanNStillValid)
{
    Rng rng(5);
    Tensor<float> data({4, 2});
    fillNormal(data, rng);
    auto res = kMeans(data, 16);
    ASSERT_EQ(res.centroids.dim(0), 16u);
    // Every point should map to (near) itself: inertia ~ 0.
    EXPECT_LT(res.inertia, 1e-6);
}

TEST(KMeans, AssignmentsMatchNearestCentroid)
{
    Rng rng(6);
    auto data = generateClustered(200, 4, ClusteredDataSpec{}, rng);
    auto res = kMeans(data, 8);
    auto manual = assignToNearest(data, res.centroids);
    EXPECT_EQ(res.assignments, manual);
}

TEST(KMeans, SampledTrainingStillClusters)
{
    Rng rng(7);
    auto data = separableData(2000, 4, 4, rng);
    KMeansOptions opts;
    opts.sample_limit = 256;
    auto res = kMeans(data, 4, opts);
    // Sampled training on separable data still recovers the clusters.
    for (std::size_t i = 0; i < data.dim(0); ++i) {
        double d = rowDistanceSq(data, i, res.centroids,
                                 res.assignments[i]);
        EXPECT_LT(d, 0.5);
    }
}

TEST(KMeans, IdenticalPointsDoNotCrash)
{
    Tensor<float> data({32, 4});
    data.fill(1.5f);
    auto res = kMeans(data, 4);
    EXPECT_LT(res.inertia, 1e-9);
    for (std::size_t d = 0; d < 4; ++d)
        EXPECT_NEAR(res.centroids.at(res.assignments[0], d), 1.5f, 1e-6);
}

TEST(KMeans, MatchesReferenceLloydUnsampled)
{
    for (std::uint64_t seed : {2, 3, 6}) {
        Rng rng(seed);
        auto data = generateClustered(400, 4, ClusteredDataSpec{}, rng);
        for (std::size_t k : {1, 8, 32, 255}) {
            for (int iters : {3, 25}) {
                KMeansOptions opts;
                opts.seed = seed;
                opts.max_iters = iters;
                expectMatchesReference(data, k, opts,
                                       "seed " + std::to_string(seed) +
                                           " k " + std::to_string(k) +
                                           " iters " +
                                           std::to_string(iters));
            }
        }
    }
}

TEST(KMeans, MatchesReferenceLloydSampled)
{
    Rng rng(7);
    auto data = separableData(2000, 4, 4, rng);
    for (std::size_t k : {4, 16, 64}) {
        KMeansOptions opts;
        opts.sample_limit = 256;
        expectMatchesReference(data, k, opts,
                               "sampled k " + std::to_string(k));
    }
}

TEST(KMeans, MatchesReferenceOnScaledDownAqlmShape)
{
    // The AQLM-3 histogram fit at an eighth of its size: clustered 8-D
    // rows with a duplicate pool, more centroids than sampled rows (so
    // k-means++ runs out of distinct rows) and a 4-iteration budget,
    // for both residual stages.
    Rng rng(8);
    ClusteredDataSpec spec;
    spec.num_clusters = 64;
    spec.popularity_alpha = 0.3;
    spec.duplicate_pool = 22;
    spec.duplicate_fraction = 0.16;
    auto data = generateClustered(1024, 8, spec, rng);
    KMeansOptions opts;
    opts.max_iters = 4;
    opts.sample_limit = 128;
    expectMatchesReference(data, 512, opts, "stage 0");
    auto km = kMeans(data, 512, opts);
    Tensor<float> residual({data.dim(0), data.dim(1)});
    for (std::size_t i = 0; i < data.dim(0); ++i) {
        const std::size_t c = km.assignments[i];
        for (std::size_t d = 0; d < data.dim(1); ++d)
            residual.at(i, d) = data.at(i, d) - km.centroids.at(c, d);
    }
    opts.seed += 1;
    expectMatchesReference(residual, 512, opts, "stage 1");
}

TEST(KMeans, MatchesReferenceOnDegenerateData)
{
    KMeansOptions opts;
    Rng rng(9);
    Tensor<float> tiny({4, 2});
    fillNormal(tiny, rng);
    expectMatchesReference(tiny, 16, opts, "k > n");
    Tensor<float> same({32, 4});
    same.fill(1.5f);
    expectMatchesReference(same, 4, opts, "identical rows");
    // One row off by 1e-3: its D^2 weight (1e-6) must still drive the
    // k-means++ draw; only an exactly-zero total draws uniformly.
    Tensor<float> nearly({32, 4});
    nearly.fill(1.5f);
    nearly.at(std::size_t(17), std::size_t(3)) = 1.501f;
    expectMatchesReference(nearly, 8, opts, "nearly identical rows");
    // Copies across the 256-row chunks of the D^2 pass: rows 0-299
    // repeat one row and the rest repeat 40 others at random, so whole
    // chunks fall to weight 0, and k exceeds the 41 distinct rows, so
    // the uniform draws start mid-run.
    Tensor<float> distinct({41, 4});
    fillNormal(distinct, rng);
    Tensor<float> copies({700, 4});
    for (std::size_t i = 0; i < copies.dim(0); ++i) {
        const std::size_t src = i < 300 ? 0 : 1 + rng.uniformInt(40);
        for (std::size_t d = 0; d < 4; ++d)
            copies.at(i, d) = distinct.at(src, d);
    }
    expectMatchesReference(copies, 64, opts, "copies across chunks");
    opts.sample_limit = 500;
    expectMatchesReference(copies, 64, opts, "sampled copies");
    opts.sample_limit = 0;
    // Non-finite rows reach the linear path; everything they poison
    // (centroid sums, inertia) must poison identically.
    Tensor<float> bad({64, 4});
    fillNormal(bad, rng);
    bad.at(std::size_t(5), std::size_t(1)) =
        std::numeric_limits<float>::quiet_NaN();
    bad.at(std::size_t(9), std::size_t(2)) =
        std::numeric_limits<float>::infinity();
    opts.max_iters = 3;
    expectMatchesReference(bad, 4, opts, "non-finite rows");
}

TEST(KMeans, InertiaMatchesReturnedAssignments)
{
    // The reported inertia is the sum over all rows of the distance to
    // the returned assignment under the returned centroids, for sampled
    // and unsampled fits alike.
    for (std::uint64_t seed : {2, 3, 6}) {
        Rng rng(seed);
        auto data = generateClustered(400, 4, ClusteredDataSpec{}, rng);
        for (std::size_t k : {8, 32}) {
            for (std::size_t limit : {0, 128}) {
                KMeansOptions opts;
                opts.seed = seed;
                opts.max_iters = 3;
                opts.sample_limit = limit;
                auto res = kMeans(data, k, opts);
                double sum = 0;
                for (std::size_t i = 0; i < data.dim(0); ++i)
                    sum += rowDistanceSq(data, i, res.centroids,
                                         res.assignments[i]);
                EXPECT_NEAR(res.inertia, sum, 1e-9 * sum)
                    << "seed " << seed << " k " << k << " limit " << limit;
            }
        }
    }
}

TEST(KMeans, PlusPlusPassFoldsChunksInParallelSumOrder)
{
    // Squared distances near 2^40, 2^0, 2^20 and 2^-40 in the four
    // 256-row chunks.  Each chunk's partial is exact on its own, while
    // a running sum already near 2^48 rounds the next chunk's rows to
    // 2^-4: regrouping the sum (folding a partial one chunk late, or
    // adding row by row) changes the low bits of the D^2 total, so the
    // total must be exactly par::parallelSum's fold of the row values.
    constexpr std::size_t kRows = 1000, kDim = 4;
    constexpr int kChunkExponent[] = {20, 0, 10, -20};
    Rng rng(4040);
    Tensor<float> data({kRows, kDim});
    for (std::size_t i = 0; i < kRows; ++i) {
        const int exponent = kChunkExponent[i / ref::kAssignGrain] +
                             static_cast<int>(rng.uniformInt(5)) - 2;
        const double scale = std::ldexp(1.0, exponent);
        for (std::size_t d = 0; d < kDim; ++d)
            data.at(i, d) =
                static_cast<float>(scale * rng.uniform(-2.0, 2.0));
    }
    auto folded = [&](const std::vector<double> &dist_sq) {
        return par::parallelSum<double>(
            kRows, ref::kAssignGrain, [&](const par::ChunkRange &c) {
                double part = 0;
                for (std::size_t i = c.begin; i < c.end; ++i)
                    part += dist_sq[i];
                return part;
            });
    };

    std::vector<double> dist_sq(kRows, std::numeric_limits<double>::max());
    std::vector<std::size_t> live(kRows);
    std::iota(live.begin(), live.end(), std::size_t{0});
    const std::vector<float> origin(kDim, 0.0f);
    const double first =
        detail::kMeansPlusPlusPass(data, origin.data(), dist_sq, live);
    EXPECT_EQ(live.size(), kRows);
    for (std::size_t i = 0; i < kRows; ++i)
        ASSERT_EQ(dist_sq[i], simd::squaredDistance(
                                  data.data() + i * kDim, origin.data(),
                                  kDim))
            << "row " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first),
              std::bit_cast<std::uint64_t>(folded(dist_sq)));

    // A second centroid on row 300: that row drops to 0 and out of the
    // live set, the others keep their minimum, and the total folds the
    // same way (the dropped row adds +0.0 to its chunk).
    const std::vector<float> on_row(data.data() + 300 * kDim,
                                    data.data() + 301 * kDim);
    const double second =
        detail::kMeansPlusPlusPass(data, on_row.data(), dist_sq, live);
    EXPECT_EQ(dist_sq[300], 0.0);
    EXPECT_EQ(std::count(live.begin(), live.end(), std::size_t{300}), 0);
    EXPECT_EQ(live.size(), static_cast<std::size_t>(std::count_if(
                               dist_sq.begin(), dist_sq.end(),
                               [](double d) { return d > 0; })));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(second),
              std::bit_cast<std::uint64_t>(folded(dist_sq)));
}

TEST(KMeansDeath, RejectsBadInput)
{
    Tensor<float> one_d({8});
    EXPECT_DEATH(kMeans(one_d, 2), "\\[n, dim\\]");
    Tensor<float> ok({8, 2});
    EXPECT_DEATH(kMeans(ok, 0), "positive");
}

} // namespace
} // namespace vqllm::vq
