/**
 * @file
 * Tests for the tensor-parallel extension (the paper's Sec. VII-A
 * future-work item implemented here).
 */
#include <gtest/gtest.h>

#include "llm/tensor_parallel.h"

namespace vqllm::llm {
namespace {

using gpusim::rtx4090;

TpConfig
nvlink(int degree)
{
    TpConfig tp;
    tp.degree = degree;
    return tp;
}

TEST(TensorParallel, Degree1MatchesSingleGpuDecode)
{
    // A single GPU is a TP group of one: both estimates price the same
    // decode step, so they agree exactly.
    for (auto scheme : {QuantScheme::FP16, QuantScheme::EWQ4,
                        QuantScheme::VQ4, QuantScheme::VQ2}) {
        auto tp1 = estimateTensorParallel(rtx4090(), llama7b(), scheme,
                                          nvlink(1));
        auto single = estimateE2E(rtx4090(), llama7b(), scheme);
        EXPECT_EQ(tp1.decode_us, single.decode_us)
            << quantSchemeName(scheme);
        EXPECT_EQ(tp1.memory_per_gpu, single.totalMemoryBytes())
            << quantSchemeName(scheme);
        EXPECT_EQ(tp1.comm_us_per_step, 0.0);
        EXPECT_EQ(tp1.comm_fraction, 0.0);
    }
}

TEST(TensorParallel, ShardingSpeedsUpLargeModels)
{
    auto tp1 = estimateTensorParallel(rtx4090(), llama65b(),
                                      QuantScheme::FP16, nvlink(1));
    auto tp4 = estimateTensorParallel(rtx4090(), llama65b(),
                                      QuantScheme::FP16, nvlink(4));
    EXPECT_LT(tp4.decode_us, tp1.decode_us);
    // Sub-linear: communication and replicated ops cost something.
    EXPECT_GT(tp4.decode_us, tp1.decode_us / 4.0);
}

TEST(TensorParallel, CommunicationFractionGrowsWithDegree)
{
    double prev = 0;
    for (int degree : {2, 4, 8}) {
        auto r = estimateTensorParallel(rtx4090(), llama65b(),
                                        QuantScheme::VQ4,
                                        nvlink(degree));
        EXPECT_GT(r.comm_fraction, prev) << "degree " << degree;
        prev = r.comm_fraction;
    }
    EXPECT_LT(prev, 0.8); // never communication-dominated at NVLink BW
}

TEST(TensorParallel, QuantizationShrinksPerGpuMemory)
{
    auto fp16 = estimateTensorParallel(rtx4090(), llama65b(),
                                       QuantScheme::FP16, nvlink(4));
    auto vq4 = estimateTensorParallel(rtx4090(), llama65b(),
                                      QuantScheme::VQ4, nvlink(4));
    EXPECT_LT(vq4.memory_per_gpu, fp16.memory_per_gpu / 3);
    // 65B FP16 needs >30 GiB/GPU at TP4; VQ-4 fits a 24 GiB card.
    EXPECT_GT(fp16.memory_per_gpu, 30ull << 30);
    EXPECT_LT(vq4.memory_per_gpu, 24ull << 30);
}

TEST(TensorParallel, VqStillWinsUnderTp)
{
    // The paper's thesis carries over to TP serving: VQ beats FP16 at
    // every degree.
    for (int degree : {2, 4}) {
        auto fp16 = estimateTensorParallel(rtx4090(), llama65b(),
                                           QuantScheme::FP16,
                                           nvlink(degree));
        auto vq4 = estimateTensorParallel(rtx4090(), llama65b(),
                                          QuantScheme::VQ4,
                                          nvlink(degree));
        EXPECT_LT(vq4.decode_us, fp16.decode_us) << "degree " << degree;
    }
}

TEST(TensorParallel, SlowLinksHurt)
{
    TpConfig pcie;
    pcie.degree = 4;
    pcie.link_bw_gbps = 25.0; // PCIe-class
    pcie.collective_latency_us = 15.0;
    auto fast = estimateTensorParallel(rtx4090(), llama65b(),
                                       QuantScheme::VQ4, nvlink(4));
    auto slow = estimateTensorParallel(rtx4090(), llama65b(),
                                       QuantScheme::VQ4, pcie);
    EXPECT_GT(slow.decode_us, fast.decode_us);
    EXPECT_GT(slow.comm_fraction, fast.comm_fraction);
}

TEST(TensorParallel, RingAllReduceFormula)
{
    TpConfig tp = nvlink(4);
    // 2*(4-1)/4 = 1.5 traversals of the payload at 300 GB/s + 8 us.
    std::uint64_t bytes = 300ull << 20;
    double expected = 1.5 * static_cast<double>(bytes) / 300e9 * 1e6 +
                      8.0;
    EXPECT_NEAR(ringAllReduceUs(tp, bytes), expected, 1e-6);
    EXPECT_GT(ringAllReduceUs(tp, bytes), 8.0);
    // Degree 1 is free.
    EXPECT_DOUBLE_EQ(ringAllReduceUs(nvlink(1), 1 << 20), 0.0);
}

TEST(TensorParallelDeath, RejectsUnevenHeadSharding)
{
    EXPECT_DEATH(estimateTensorParallel(rtx4090(), llama7b(),
                                        QuantScheme::FP16, nvlink(3)),
                 "divide");
}

} // namespace
} // namespace vqllm::llm
