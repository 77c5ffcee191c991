/**
 * @file
 * Tests for the synthetic LLM-like data generators: the statistics the
 * paper's figures rely on (cluster skew, correlation, outliers) must be
 * present in the generated data.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/datagen.h"

namespace vqllm {
namespace {

/** Reference: generateClustered with one Rng::weightedIndex per draw. */
Tensor<float>
refGenerateClustered(std::size_t rows, std::size_t dim,
                     const ClusteredDataSpec &spec, Rng &rng)
{
    Tensor<float> centers({spec.num_clusters, dim});
    fillNormal(centers, rng);
    std::vector<double> weights =
        powerLawWeights(spec.num_clusters, spec.popularity_alpha);
    Tensor<float> pool;
    std::vector<double> pool_weights;
    if (spec.duplicate_pool > 0) {
        pool = Tensor<float>({spec.duplicate_pool, dim});
        for (std::size_t p = 0; p < spec.duplicate_pool; ++p) {
            std::size_t c = rng.weightedIndex(weights);
            for (std::size_t d = 0; d < dim; ++d)
                pool.at(p, d) = static_cast<float>(
                    centers.at(c, d) +
                    rng.normal(0.0, spec.cluster_spread));
        }
        pool_weights = powerLawWeights(spec.duplicate_pool, 1.0);
    }
    Tensor<float> out({rows, dim});
    for (std::size_t r = 0; r < rows; ++r) {
        if (spec.duplicate_pool > 0 &&
            rng.uniform() < spec.duplicate_fraction) {
            std::size_t p = rng.weightedIndex(pool_weights);
            for (std::size_t d = 0; d < dim; ++d)
                out.at(r, d) = pool.at(p, d);
            continue;
        }
        bool outlier = rng.uniform() < spec.outlier_fraction;
        std::size_t c = rng.weightedIndex(weights);
        float prev = 0.0f;
        for (std::size_t d = 0; d < dim; ++d) {
            double sample;
            if (outlier) {
                sample = rng.normal(0.0, spec.outlier_scale);
            } else {
                sample = centers.at(c, d) +
                         rng.normal(0.0, spec.cluster_spread);
            }
            double mixed = (1.0 - spec.dim_correlation) * sample +
                           spec.dim_correlation * prev;
            out.at(r, d) = static_cast<float>(mixed);
            prev = out.at(r, d);
        }
    }
    return out;
}

TEST(Datagen, ClusteredMatchesWeightedIndexReference)
{
    // The generator draws clusters and pool templates from prefix sums
    // built once; tensors and the RNG stream must be unchanged.
    for (double alpha : {0.0, 0.3, 1.0}) {
        for (std::size_t pool : {0, 1, 22}) {
            for (std::size_t clusters : {1, 7, 512}) {
                ClusteredDataSpec spec;
                spec.num_clusters = clusters;
                spec.popularity_alpha = alpha;
                spec.duplicate_pool = pool;
                spec.duplicate_fraction = pool > 0 ? 0.16 : 0.0;
                spec.outlier_fraction = 0.05;
                const std::uint64_t seed = 100 + clusters + pool;
                Rng got_rng(seed), want_rng(seed);
                auto got = generateClustered(2048, 8, spec, got_rng);
                auto want = refGenerateClustered(2048, 8, spec, want_rng);
                ASSERT_EQ(got.shape(), want.shape());
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(float)),
                          0)
                    << "alpha " << alpha << " pool " << pool
                    << " clusters " << clusters;
                // The raw stream, then the cached Box-Muller half.
                EXPECT_EQ(got_rng.next(), want_rng.next())
                    << "alpha " << alpha << " pool " << pool
                    << " clusters " << clusters;
                EXPECT_EQ(got_rng.normal(), want_rng.normal());
            }
        }
    }
}

TEST(Datagen, ClusteredShapeAndDeterminism)
{
    ClusteredDataSpec spec;
    Rng rng1(42), rng2(42);
    auto a = generateClustered(100, 8, spec, rng1);
    auto b = generateClustered(100, 8, spec, rng2);
    ASSERT_EQ(a.shape(), (Shape{100, 8}));
    EXPECT_EQ(maxAbsDiff(a, b), 0.0);
}

TEST(Datagen, ClusteredHasAdjacentDimCorrelation)
{
    ClusteredDataSpec spec;
    spec.dim_correlation = 0.7;
    spec.num_clusters = 1024; // many clusters -> correlation from mixing
    Rng rng(3);
    auto data = generateClustered(4000, 8, spec, rng);
    // Pearson correlation between dim d and d+1, averaged.
    double corr_sum = 0;
    int pairs = 0;
    for (std::size_t d = 0; d + 1 < 8; ++d) {
        double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
        std::size_t n = data.dim(0);
        for (std::size_t r = 0; r < n; ++r) {
            double x = data.at(r, d), y = data.at(r, d + 1);
            sx += x; sy += y; sxx += x * x; syy += y * y; sxy += x * y;
        }
        double cov = sxy / n - (sx / n) * (sy / n);
        double vx = sxx / n - (sx / n) * (sx / n);
        double vy = syy / n - (sy / n) * (sy / n);
        corr_sum += cov / std::sqrt(vx * vy);
        ++pairs;
    }
    EXPECT_GT(corr_sum / pairs, 0.2);
}

TEST(Datagen, OutlierFractionControlsTails)
{
    ClusteredDataSpec no_outliers;
    no_outliers.outlier_fraction = 0.0;
    ClusteredDataSpec with_outliers;
    with_outliers.outlier_fraction = 0.05;
    Rng r1(5), r2(5);
    auto clean = generateClustered(2000, 4, no_outliers, r1);
    auto dirty = generateClustered(2000, 4, with_outliers, r2);
    auto max_abs = [](const Tensor<float> &t) {
        double m = 0;
        for (std::size_t i = 0; i < t.size(); ++i)
            m = std::max(m, std::abs(static_cast<double>(t[i])));
        return m;
    };
    EXPECT_GT(max_abs(dirty), max_abs(clean));
}

TEST(Datagen, LlmWeightScaleMatchesFanIn)
{
    Rng rng(7);
    auto w = generateLlmWeight(128, 512, rng);
    ASSERT_EQ(w.shape(), (Shape{128, 512}));
    // Variance should be on the order of 1/in_features.
    double var = 0;
    for (std::size_t i = 0; i < w.size(); ++i)
        var += static_cast<double>(w[i]) * w[i];
    var /= static_cast<double>(w.size());
    EXPECT_GT(var, 0.5 / 512.0);
    EXPECT_LT(var, 20.0 / 512.0);
}

TEST(Datagen, KvCacheHasPerChannelStructure)
{
    Rng rng(9);
    auto kv = generateKvCache(2, 256, 16, rng);
    ASSERT_EQ(kv.shape(), (Shape{2, 256, 16}));
    // Between-channel variance of the per-channel means should dominate
    // the within-channel variance contribution of the offsets (channels
    // have strong static structure).
    double channel_mean_var = 0;
    for (std::size_t c = 0; c < 16; ++c) {
        double mean = 0;
        for (std::size_t t = 0; t < 256; ++t)
            mean += kv.at(std::size_t(0), t, c);
        mean /= 256;
        channel_mean_var += mean * mean;
    }
    channel_mean_var /= 16;
    EXPECT_GT(channel_mean_var, 0.2); // offsets ~ N(0,1)
}

TEST(Datagen, Correlated2dHitsTargetCorrelation)
{
    Rng rng(11);
    auto pts = generateCorrelated2d(20000, 0.8, 0.0, rng);
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    std::size_t n = pts.dim(0);
    for (std::size_t i = 0; i < n; ++i) {
        double x = pts.at(i, std::size_t(0));
        double y = pts.at(i, std::size_t(1));
        sx += x; sy += y; sxx += x * x; syy += y * y; sxy += x * y;
    }
    double cov = sxy / n - (sx / n) * (sy / n);
    double vx = sxx / n - (sx / n) * (sx / n);
    double vy = syy / n - (sy / n) * (sy / n);
    EXPECT_NEAR(cov / std::sqrt(vx * vy), 0.8, 0.05);
}

} // namespace
} // namespace vqllm
