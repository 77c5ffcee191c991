/**
 * @file
 * Task-accuracy evaluation of quantization schemes (paper Fig. 17
 * right; substitution for the arc-challenge / LMEval pipeline, see
 * DESIGN.md).
 *
 * A small MLP classifier is trained on synthetic correlated clustered
 * data; its weight matrix is then quantized with each method (FP16
 * passthrough, VQ, group-wise integer RTN) through the *identical*
 * quantize->dequantize code paths the kernels use, and held-out accuracy
 * is measured.  Cross-dimension correlation in the weights is what lets
 * VQ retain accuracy where element-wise quantization loses it (paper
 * Fig. 2).
 */
#pragma once

#include <cstdint>
#include <utility>

#include "ewq/int_quant.h"
#include "tensor/tensor.h"
#include "vq/quantizer.h"

namespace vqllm::llm {

/** A two-layer MLP classifier. */
struct MlpModel
{
    /** Hidden weights [hidden, input]. */
    Tensor<float> w1;
    /** Output weights [classes, hidden]. */
    Tensor<float> w2;
    /** Hidden and output biases. */
    std::vector<float> b1, b2;
};

/** A labelled dataset. */
struct Dataset
{
    /** [n, dim] features. */
    Tensor<float> features;
    /** class index per row. */
    std::vector<std::uint32_t> labels;
};

/** Synthetic classification task parameters. */
struct TaskSpec
{
    std::size_t input_dim = 24;
    std::size_t classes = 8;
    std::size_t clusters_per_class = 5;
    std::size_t train_samples = 3000;
    std::size_t test_samples = 1500;
    double dim_correlation = 0.6;
    double label_noise = 0.04;
    /** Stddev of samples around their cluster center (task hardness). */
    double sample_spread = 0.9;
};

/** Generate a synthetic correlated classification dataset. */
Dataset makeTask(const TaskSpec &spec, Rng &rng);

/** Split a dataset: its first `train_rows` rows train, the rest test.
 *  @return {train, test} */
std::pair<Dataset, Dataset> splitTask(const Dataset &all,
                                      std::size_t train_rows);

/**
 * Train the MLP with SGD on softmax cross-entropy.
 *
 * @param train   training data
 * @param hidden  hidden width
 * @param epochs  passes over the data
 * @param lr      learning rate
 * @param rng     initialization/shuffling randomness
 */
MlpModel trainMlp(const Dataset &train, std::size_t hidden, int epochs,
                  double lr, Rng &rng);

/** @return classification accuracy of the model on a dataset. */
double evaluate(const MlpModel &model, const Dataset &data);

/** Accuracy of a model whose hidden weights are replaced. */
double evaluateWithWeights(const MlpModel &model,
                           const Tensor<float> &w1_replacement,
                           const Dataset &data);

/** Accuracy comparison across quantization schemes at one bit-width. */
struct AccuracyReport
{
    double fp16 = 0;
    double vq = 0;
    double ewq = 0;
};

/**
 * Run the full pipeline: make task, train, quantize the hidden weights
 * with a VQ config and an equal-bit-width RTN config, evaluate all
 * three.
 *
 * @param vq_cfg  VQ configuration (entry count may be reduced for the
 *                small weight matrix)
 * @param ewq_cfg integer config at the same equivalent bit-width
 * @param seed    determinism seed
 */
AccuracyReport compareQuantAccuracy(const vq::VQConfig &vq_cfg,
                                    const ewq::IntQuantConfig &ewq_cfg,
                                    std::uint64_t seed = 1234);

/** Held-out accuracy per KV-cache storage scheme (llm::KvScheme
 *  order: FP16, INT4, VQ4, VQ2). */
struct KvAccuracyReport
{
    double fp16 = 0;
    double int4 = 0;
    double vq4 = 0;
    double vq2 = 0;
};

/**
 * Quality trade-off of the KV storage schemes: train the classifier,
 * then quantize its *hidden activations* — the stand-in for cached KV
 * vectors, which are activations, not weights — through each KV
 * scheme's quantize->dequantize path (FP16 round-trip, group-wise int4
 * RTN, CQ-4 and CQ-2 vector quantization) and evaluate the output
 * layer on the reconstructed activations.
 *
 * @param seed determinism seed (task, init, shuffling)
 */
KvAccuracyReport compareKvAccuracy(std::uint64_t seed = 1234);

} // namespace vqllm::llm
