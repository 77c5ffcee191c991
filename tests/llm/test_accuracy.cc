/**
 * @file
 * Tests for the task-accuracy pipeline (Fig. 17 right / Fig. 2 upper):
 * training converges, and quantization accuracy orders as
 * FP16 >= VQ > element-wise at equal bit-width.
 */
#include <gtest/gtest.h>

#include "llm/accuracy.h"

namespace vqllm::llm {
namespace {

TEST(Accuracy, TaskIsLearnable)
{
    Rng rng(99);
    TaskSpec spec;
    spec.train_samples = 1200;
    spec.test_samples = 600;
    auto [train, test] = splitTask(makeTask(spec, rng), spec.train_samples);
    ASSERT_EQ(test.labels.size(), spec.test_samples);

    MlpModel model = trainMlp(train, 48, 8, 0.02, rng);
    double acc = evaluate(model, test);
    // Far above the 25% random baseline.
    EXPECT_GT(acc, 0.6);
}

TEST(Accuracy, Fig17OrderingAt2BitEquivalent)
{
    // 2-bit equivalent: VQ<4,8,1> vs int2 RTN.  This is where VQ's
    // cross-dimension modeling dominates (paper Fig. 2 upper-left).
    vq::VQConfig vq_cfg = vq::cq2(); // vec 4, 256 entries -> 2 bits
    ewq::IntQuantConfig ewq_cfg;
    ewq_cfg.bits = 2;
    ewq_cfg.group_size = 24;
    auto report = compareQuantAccuracy(vq_cfg, ewq_cfg, 1234);

    EXPECT_GT(report.fp16, 0.6);
    // FP16 is the ceiling (small tolerance for quantization luck).
    EXPECT_GE(report.fp16 + 0.02, report.vq);
    // VQ beats element-wise at the same bit-width.
    EXPECT_GT(report.vq, report.ewq);
}

TEST(Accuracy, Fig17OrderingAt4BitEquivalent)
{
    // 4-bit equivalent: VQ<2,8,1> (CQ-4-like) vs int4 RTN; the paper
    // reports VQ-LLM ~2.5% above qServe on arc-challenge.
    vq::VQConfig vq_cfg = vq::cq4();
    ewq::IntQuantConfig ewq_cfg;
    ewq_cfg.bits = 4;
    ewq_cfg.group_size = 24;
    auto report = compareQuantAccuracy(vq_cfg, ewq_cfg, 1234);

    EXPECT_GT(report.fp16, 0.6);
    // Both 4-bit schemes stay near FP16; VQ is not meaningfully worse
    // than element-wise.
    EXPECT_GE(report.vq + 0.03, report.ewq);
    EXPECT_GE(report.vq + 0.05, report.fp16);
}

TEST(Accuracy, DeterministicForSeed)
{
    vq::VQConfig vq_cfg = vq::cq4();
    ewq::IntQuantConfig ewq_cfg;
    ewq_cfg.bits = 4;
    auto a = compareQuantAccuracy(vq_cfg, ewq_cfg, 77);
    auto b = compareQuantAccuracy(vq_cfg, ewq_cfg, 77);
    EXPECT_DOUBLE_EQ(a.fp16, b.fp16);
    EXPECT_DOUBLE_EQ(a.vq, b.vq);
    EXPECT_DOUBLE_EQ(a.ewq, b.ewq);
}

TEST(Accuracy, KvSchemeQualityTriangle)
{
    // KV storage schemes quantize cached activations, not weights:
    // FP16 round-trip is the quality ceiling, 2-bit VQ pays the most,
    // and every scheme stays within a few points of FP16 — the quality
    // side of the capacity/speed/quality trade the serving sweep
    // measures.
    auto r = compareKvAccuracy(1234);
    EXPECT_GT(r.fp16, 0.6);
    EXPECT_GE(r.fp16, r.int4);
    EXPECT_GE(r.fp16, r.vq4);
    EXPECT_GE(r.vq4, r.vq2);
    // CQ-4 KV holds quality near FP16 (the 3.85x capacity is not paid
    // for in task accuracy); CQ-2 degrades but stays usable.
    EXPECT_GE(r.vq4 + 0.02, r.fp16);
    EXPECT_GE(r.vq2 + 0.05, r.fp16);
}

TEST(Accuracy, KvSchemeReportDeterministicForSeed)
{
    auto a = compareKvAccuracy(99);
    auto b = compareKvAccuracy(99);
    EXPECT_DOUBLE_EQ(a.fp16, b.fp16);
    EXPECT_DOUBLE_EQ(a.int4, b.int4);
    EXPECT_DOUBLE_EQ(a.vq4, b.vq4);
    EXPECT_DOUBLE_EQ(a.vq2, b.vq2);
}

} // namespace
} // namespace vqllm::llm
