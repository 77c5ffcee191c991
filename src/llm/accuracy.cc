#include "llm/accuracy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "kernels/reference.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"

namespace vqllm::llm {

Dataset
makeTask(const TaskSpec &spec, Rng &rng)
{
    Dataset data;
    std::size_t total = spec.train_samples + spec.test_samples;
    data.features = Tensor<float>({total, spec.input_dim});
    data.labels.resize(total);

    // Class-conditional cluster centers.
    std::size_t num_centers = spec.classes * spec.clusters_per_class;
    Tensor<float> centers({num_centers, spec.input_dim});
    fillNormal(centers, rng, 0.0, 1.2);

    for (std::size_t i = 0; i < total; ++i) {
        std::uint32_t cls =
            static_cast<std::uint32_t>(rng.uniformInt(spec.classes));
        std::size_t center =
            cls * spec.clusters_per_class +
            rng.uniformInt(spec.clusters_per_class);
        float prev = 0.0f;
        for (std::size_t d = 0; d < spec.input_dim; ++d) {
            double raw = centers.at(center, d) +
                         rng.normal(0.0, spec.sample_spread);
            double mixed = (1.0 - spec.dim_correlation) * raw +
                           spec.dim_correlation * prev;
            data.features.at(i, d) = static_cast<float>(mixed);
            prev = data.features.at(i, d);
        }
        if (rng.uniform() < spec.label_noise)
            cls = static_cast<std::uint32_t>(
                rng.uniformInt(spec.classes));
        data.labels[i] = cls;
    }
    return data;
}

namespace {

/** Forward pass returning class probabilities for one sample. */
std::vector<float>
forward(const MlpModel &model, const Tensor<float> &w1,
        const Tensor<float> &features, std::size_t row,
        std::vector<float> *hidden_out = nullptr)
{
    const std::size_t dim = features.dim(1);
    const std::size_t hidden = w1.dim(0);
    const std::size_t classes = model.w2.dim(0);

    const float *x = features.data() + row * dim;
    std::vector<float> h(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
        float acc = model.b1[j] + simd::dot(w1.data() + j * dim, x, dim);
        h[j] = acc > 0 ? acc : 0.0f; // ReLU
    }
    if (hidden_out)
        *hidden_out = h;

    std::vector<float> logits(classes);
    for (std::size_t c = 0; c < classes; ++c)
        logits[c] = model.b2[c] +
                    simd::dot(model.w2.data() + c * hidden, h.data(),
                              hidden);
    kernels::softmaxInPlace(logits);
    return logits;
}

} // namespace

MlpModel
trainMlp(const Dataset &train, std::size_t hidden, int epochs, double lr,
         Rng &rng)
{
    const std::size_t n = train.features.dim(0);
    const std::size_t dim = train.features.dim(1);
    std::size_t classes = 0;
    for (auto l : train.labels)
        classes = std::max<std::size_t>(classes, l + 1);

    MlpModel model;
    model.w1 = Tensor<float>({hidden, dim});
    model.w2 = Tensor<float>({classes, hidden});
    fillNormal(model.w1, rng, 0.0, 1.0 / std::sqrt(double(dim)));
    fillNormal(model.w2, rng, 0.0, 1.0 / std::sqrt(double(hidden)));
    model.b1.assign(hidden, 0.0f);
    model.b2.assign(classes, 0.0f);

    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;

    std::vector<float> h;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(order);
        for (std::size_t idx : order) {
            auto probs =
                forward(model, model.w1, train.features, idx, &h);
            std::uint32_t y = train.labels[idx];

            // Output layer gradients (softmax CE): dL/dlogit = p - 1_y.
            std::vector<float> dlogit(classes);
            for (std::size_t c = 0; c < classes; ++c)
                dlogit[c] = probs[c] - (c == y ? 1.0f : 0.0f);

            // Hidden gradient through w2 and ReLU.
            std::vector<float> dh(hidden, 0.0f);
            for (std::size_t c = 0; c < classes; ++c) {
                for (std::size_t j = 0; j < hidden; ++j)
                    dh[j] += dlogit[c] * model.w2.at(c, j);
                model.b2[c] -= static_cast<float>(lr * dlogit[c]);
            }
            for (std::size_t c = 0; c < classes; ++c)
                for (std::size_t j = 0; j < hidden; ++j)
                    model.w2.at(c, j) -=
                        static_cast<float>(lr * dlogit[c] * h[j]);
            const float *x = train.features.data() + idx * dim;
            for (std::size_t j = 0; j < hidden; ++j) {
                if (h[j] <= 0)
                    dh[j] = 0;
                model.b1[j] -= static_cast<float>(lr * dh[j]);
                // A ReLU-masked unit's row update subtracts zero from
                // every weight.
                if (dh[j] == 0)
                    continue;
                float *w = model.w1.data() + j * dim;
                const double step = lr * dh[j];
                for (std::size_t d = 0; d < dim; ++d)
                    w[d] -= static_cast<float>(step * x[d]);
            }
        }
        lr *= 0.95; // simple decay
    }
    return model;
}

double
evaluate(const MlpModel &model, const Dataset &data)
{
    return evaluateWithWeights(model, model.w1, data);
}

double
evaluateWithWeights(const MlpModel &model,
                    const Tensor<float> &w1_replacement,
                    const Dataset &data)
{
    const std::size_t n = data.features.dim(0);
    // Samples are independent; the correct count is an integer sum, so
    // the reduction is exact for any thread count.
    std::size_t correct = par::parallelSum<std::size_t>(
        n, 64, [&](const par::ChunkRange &ch) {
            std::size_t part = 0;
            for (std::size_t i = ch.begin; i < ch.end; ++i) {
                auto probs =
                    forward(model, w1_replacement, data.features, i);
                std::size_t best = 0;
                for (std::size_t c = 1; c < probs.size(); ++c)
                    if (probs[c] > probs[best])
                        best = c;
                if (best == data.labels[i])
                    ++part;
            }
            return part;
        });
    return static_cast<double>(correct) / static_cast<double>(n);
}

std::pair<Dataset, Dataset>
splitTask(const Dataset &all, std::size_t train_rows)
{
    const std::size_t rows = all.labels.size();
    const std::size_t dim = all.features.dim(1);
    vqllm_assert(train_rows <= rows, "train_rows ", train_rows,
                 " exceeds the dataset's ", rows, " rows");
    Dataset train, test;
    train.features = Tensor<float>({train_rows, dim});
    test.features = Tensor<float>({rows - train_rows, dim});
    std::copy(all.features.data(), all.features.data() + train_rows * dim,
              train.features.data());
    std::copy(all.features.data() + train_rows * dim,
              all.features.data() + rows * dim, test.features.data());
    train.labels.assign(all.labels.begin(),
                        all.labels.begin() + train_rows);
    test.labels.assign(all.labels.begin() + train_rows, all.labels.end());
    return {std::move(train), std::move(test)};
}

namespace {

/** The classifier both comparisons quantize, with its held-out set. */
struct TrainedTask
{
    MlpModel model;
    Dataset test;
};

/** Generate the default task from `seed`, split it, and train the
 *  classifier on its train rows.  The hidden width 192 divides by both
 *  CQ vector sizes (2 and 4). */
TrainedTask
trainOnTask(std::uint64_t seed)
{
    Rng rng(seed);
    TaskSpec spec;
    auto [train, test] = splitTask(makeTask(spec, rng), spec.train_samples);
    MlpModel model = trainMlp(train, 192, 14, 0.02, rng);
    return {std::move(model), std::move(test)};
}

/** A tensor quantized through a VQ config and reconstructed.  The
 *  codebook is pooled over the whole tensor so it trains on far more
 *  sub-vectors than it has entries (no memorization), keeping the
 *  bit-width comparisons honest. */
Tensor<float>
vqRoundTrip(const Tensor<float> &x, vq::VQConfig cfg)
{
    cfg.scope = vq::CodebookScope::PerTensor;
    vq::KMeansOptions opts;
    opts.max_iters = 12;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(x);
    vq::reorderByFrequency(qt); // exercises the deployment path too
    return vq::VectorQuantizer::dequantize(qt);
}

/** Accuracy of the output layer over a precomputed (possibly
 *  reconstructed) hidden-activation matrix [n, hidden]. */
double
evaluateFromHidden(const MlpModel &model, const Tensor<float> &hidden,
                   const Dataset &data)
{
    const std::size_t n = hidden.dim(0);
    const std::size_t width = hidden.dim(1);
    const std::size_t classes = model.w2.dim(0);
    std::size_t correct = par::parallelSum<std::size_t>(
        n, 64, [&](const par::ChunkRange &ch) {
            std::size_t part = 0;
            for (std::size_t i = ch.begin; i < ch.end; ++i) {
                const float *h = hidden.data() + i * width;
                std::size_t best = 0;
                float best_logit = 0;
                for (std::size_t c = 0; c < classes; ++c) {
                    float logit =
                        model.b2[c] +
                        simd::dot(model.w2.data() + c * width, h, width);
                    if (c == 0 || logit > best_logit) {
                        best = c;
                        best_logit = logit;
                    }
                }
                if (best == data.labels[i])
                    ++part;
            }
            return part;
        });
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace

AccuracyReport
compareQuantAccuracy(const vq::VQConfig &vq_cfg,
                     const ewq::IntQuantConfig &ewq_cfg,
                     std::uint64_t seed)
{
    const auto [model, test] = trainOnTask(seed);

    AccuracyReport report;
    // FP16 baseline: weights rounded through half precision.
    Tensor<float> w1_fp16 = toFloat(toHalf(model.w1));
    report.fp16 = evaluateWithWeights(model, w1_fp16, test);

    // VQ through the library pipeline.
    report.vq = evaluateWithWeights(model, vqRoundTrip(model.w1, vq_cfg),
                                    test);

    // Element-wise RTN at the same equivalent bit-width.
    auto w1_ewq =
        ewq::intDequantize(ewq::intQuantize(model.w1, ewq_cfg));
    report.ewq = evaluateWithWeights(model, w1_ewq, test);
    return report;
}

KvAccuracyReport
compareKvAccuracy(std::uint64_t seed)
{
    const auto [model, test] = trainOnTask(seed);

    // Cache the test set's hidden activations once — the stand-in for
    // the KV vectors a serving run would store — then reconstruct them
    // through each KV scheme's round-trip.
    const std::size_t rows = test.labels.size();
    const std::size_t hidden_width = model.w1.dim(0);
    Tensor<float> hidden({rows, hidden_width});
    std::vector<float> h;
    for (std::size_t i = 0; i < rows; ++i) {
        forward(model, model.w1, test.features, i, &h);
        for (std::size_t j = 0; j < hidden_width; ++j)
            hidden.at(i, j) = h[j];
    }

    KvAccuracyReport report;
    report.fp16 = evaluateFromHidden(model, toFloat(toHalf(hidden)), test);

    // Group-wise int4 RTN (qServe-style KV4): one scale per
    // 32-activation group, the per-head grouping scaled to this width.
    ewq::IntQuantConfig int4_cfg;
    int4_cfg.bits = 4;
    int4_cfg.group_size = 32;
    report.int4 = evaluateFromHidden(
        model, ewq::intDequantize(ewq::intQuantize(hidden, int4_cfg)),
        test);

    report.vq4 =
        evaluateFromHidden(model, vqRoundTrip(hidden, vq::cq4()), test);
    report.vq2 =
        evaluateFromHidden(model, vqRoundTrip(hidden, vq::cq2()), test);
    return report;
}

} // namespace vqllm::llm
