#include "tensor/datagen.h"

#include <algorithm>
#include <cmath>

namespace vqllm {

namespace {

/**
 * Rng::weightedIndex over fixed weights, with the running sums built
 * once: the same sequential sums, one uniform() per draw, and the first
 * index whose sum exceeds the draw (the last index if none does).
 */
class PrefixSampler
{
  public:
    PrefixSampler() = default;

    explicit PrefixSampler(const std::vector<double> &weights)
        : sums_(weights.size())
    {
        vqllm_assert(!weights.empty(), "need at least one weight");
        double acc = 0;
        for (std::size_t i = 0; i < weights.size(); ++i)
            sums_[i] = acc += weights[i];
    }

    std::size_t
    draw(Rng &rng) const
    {
        const double r = rng.uniform() * sums_.back();
        // Non-negative weights make the sums non-decreasing, so the
        // first sum above r is the upper bound of r.
        const auto it = std::upper_bound(sums_.begin(), sums_.end(), r);
        return it == sums_.end() ? sums_.size() - 1 : it - sums_.begin();
    }

  private:
    std::vector<double> sums_;
};

} // namespace

Tensor<float>
generateClustered(std::size_t rows, std::size_t dim,
                  const ClusteredDataSpec &spec, Rng &rng)
{
    vqllm_assert(spec.num_clusters > 0, "need at least one cluster");
    Tensor<float> centers({spec.num_clusters, dim});
    fillNormal(centers, rng);

    const PrefixSampler clusters(
        powerLawWeights(spec.num_clusters, spec.popularity_alpha));

    // Template rows that repeat verbatim across the tensor.
    Tensor<float> pool;
    PrefixSampler templates;
    if (spec.duplicate_pool > 0) {
        pool = Tensor<float>({spec.duplicate_pool, dim});
        for (std::size_t p = 0; p < spec.duplicate_pool; ++p) {
            std::size_t c = clusters.draw(rng);
            for (std::size_t d = 0; d < dim; ++d)
                pool.at(p, d) = static_cast<float>(
                    centers.at(c, d) +
                    rng.normal(0.0, spec.cluster_spread));
        }
        templates = PrefixSampler(powerLawWeights(spec.duplicate_pool, 1.0));
    }

    Tensor<float> out({rows, dim});
    for (std::size_t r = 0; r < rows; ++r) {
        if (spec.duplicate_pool > 0 &&
            rng.uniform() < spec.duplicate_fraction) {
            std::size_t p = templates.draw(rng);
            for (std::size_t d = 0; d < dim; ++d)
                out.at(r, d) = pool.at(p, d);
            continue;
        }
        bool outlier = rng.uniform() < spec.outlier_fraction;
        std::size_t c = clusters.draw(rng);
        float prev = 0.0f;
        for (std::size_t d = 0; d < dim; ++d) {
            double sample;
            if (outlier) {
                sample = rng.normal(0.0, spec.outlier_scale);
            } else {
                sample = centers.at(c, d) +
                         rng.normal(0.0, spec.cluster_spread);
            }
            // First-order mixing induces cross-dimension correlation.
            double mixed = (1.0 - spec.dim_correlation) * sample +
                           spec.dim_correlation * prev;
            out.at(r, d) = static_cast<float>(mixed);
            prev = out.at(r, d);
        }
    }
    return out;
}

Tensor<float>
generateLlmWeight(std::size_t out_features, std::size_t in_features,
                  Rng &rng)
{
    Tensor<float> w({out_features, in_features});
    // Per-input-channel scales: log-normal spread plus rare outlier
    // channels, as observed in transformer linear layers.
    std::vector<double> channel_scale(in_features);
    for (std::size_t c = 0; c < in_features; ++c) {
        channel_scale[c] = std::exp(rng.normal(0.0, 0.3));
        if (rng.uniform() < 0.004)
            channel_scale[c] *= 8.0;
    }
    double base = 1.0 / std::sqrt(static_cast<double>(in_features));
    for (std::size_t r = 0; r < out_features; ++r)
        for (std::size_t c = 0; c < in_features; ++c)
            w.at(r, c) = static_cast<float>(
                rng.normal(0.0, base * channel_scale[c]));
    return w;
}

Tensor<float>
generateKvCache(std::size_t heads, std::size_t tokens, std::size_t channels,
                Rng &rng)
{
    Tensor<float> kv({heads, tokens, channels});
    for (std::size_t h = 0; h < heads; ++h) {
        // Strong static per-channel offsets (key/value channel structure).
        std::vector<double> offset(channels), scale(channels);
        for (std::size_t c = 0; c < channels; ++c) {
            offset[c] = rng.normal(0.0, 1.0);
            scale[c] = 0.15 + 0.1 * rng.uniform();
        }
        // Slowly varying token state: AR(1) process per head.
        double state = rng.normal();
        for (std::size_t t = 0; t < tokens; ++t) {
            state = 0.95 * state + 0.05 * rng.normal();
            for (std::size_t c = 0; c < channels; ++c) {
                kv.at(h, t, c) = static_cast<float>(
                    offset[c] + state * 0.3 + rng.normal(0.0, scale[c]));
            }
        }
    }
    return kv;
}

Tensor<float>
generateCorrelated2d(std::size_t n, double correlation,
                     double outlier_fraction, Rng &rng)
{
    Tensor<float> pts({n, std::size_t(2)});
    double beta = std::sqrt(1.0 - correlation * correlation);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform() < outlier_fraction) {
            pts.at(i, std::size_t(0)) = static_cast<float>(rng.normal(0, 2.5));
            pts.at(i, std::size_t(1)) = static_cast<float>(rng.normal(0, 2.5));
            continue;
        }
        double x = rng.normal();
        double y = correlation * x + beta * rng.normal();
        pts.at(i, std::size_t(0)) = static_cast<float>(x);
        pts.at(i, std::size_t(1)) = static_cast<float>(y);
    }
    return pts;
}

} // namespace vqllm
