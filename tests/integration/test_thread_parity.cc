/**
 * @file
 * Determinism parity across thread counts: the functional VQ kernels,
 * the k-means fitter and the full quantizer must produce bit-identical
 * outputs AND identical event counters with VQLLM_THREADS=1 vs 8 (the
 * static chunk layout and chunk-order merges of common/parallel.h make
 * the thread count unobservable).
 */
#include <gtest/gtest.h>

#include <cstring>

#include "common/parallel.h"
#include "engine/template_engine.h"
#include "kernels/vq_kernels.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"
#include "vq/quantizer.h"

namespace vqllm {
namespace {

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

engine::PlanInputs
inputs()
{
    engine::PlanInputs in;
    in.spec = &gpusim::rtx4090();
    return in;
}

vq::QuantizedTensor
smallWeight(std::size_t n, std::size_t k, std::uint64_t seed)
{
    vq::VQConfig cfg = vq::gptvq2();
    cfg.num_entries = 32;
    Rng rng(seed);
    auto w = generateLlmWeight(n, k, rng);
    vq::KMeansOptions opts;
    opts.max_iters = 6;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(w);
    vq::reorderByFrequency(qt);
    return qt;
}

void
expectCountersEqual(const gpusim::KernelCounters &a,
                    const gpusim::KernelCounters &b)
{
    EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
    EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
    EXPECT_EQ(a.global_to_shared_bytes, b.global_to_shared_bytes);
    EXPECT_EQ(a.shared_to_reg_bytes, b.shared_to_reg_bytes);
    EXPECT_EQ(a.reg_to_shared_bytes, b.reg_to_shared_bytes);
    EXPECT_EQ(a.smem_transactions, b.smem_transactions);
    EXPECT_EQ(a.smem_ideal_transactions, b.smem_ideal_transactions);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.dequant_lookups, b.dequant_lookups);
    EXPECT_EQ(a.unpack_ops, b.unpack_ops);
    EXPECT_EQ(a.shuffle_ops, b.shuffle_ops);
    EXPECT_EQ(a.reduce_bytes, b.reduce_bytes);
}

void
expectBitIdentical(const Tensor<float> &a, const Tensor<float> &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
              0);
}

TEST(ThreadParity, VqGemmOutputsAndCountersBitIdentical)
{
    ThreadGuard guard;
    auto qt = smallWeight(96, 64, 3);
    Rng rng(5);
    Tensor<float> x({48, qt.cols});
    fillNormal(x, rng);
    auto plan = engine::planWeightKernel(
        engine::OpKind::GeMM, {48, qt.rows, qt.cols}, qt.config,
        engine::OptLevel::O2, inputs());

    par::setThreads(1);
    auto serial = kernels::runVqGemm(plan, qt, x);
    par::setThreads(8);
    auto parallel = kernels::runVqGemm(plan, qt, x);

    expectBitIdentical(serial.output, parallel.output);
    expectCountersEqual(serial.counters, parallel.counters);
    EXPECT_EQ(serial.stats.reg_hits, parallel.stats.reg_hits);
    EXPECT_EQ(serial.stats.shared_hits, parallel.stats.shared_hits);
    EXPECT_EQ(serial.stats.global_hits, parallel.stats.global_hits);
}

TEST(ThreadParity, VqGemvOutputsAndCountersBitIdentical)
{
    ThreadGuard guard;
    auto qt = smallWeight(128, 64, 7);
    Rng rng(9);
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);
    auto plan = engine::planWeightKernel(
        engine::OpKind::GeMV, {1, qt.rows, qt.cols}, qt.config,
        engine::OptLevel::O4, inputs());

    par::setThreads(1);
    auto serial = kernels::runVqGemv(plan, qt, x);
    par::setThreads(8);
    auto parallel = kernels::runVqGemv(plan, qt, x);

    expectBitIdentical(serial.output, parallel.output);
    expectCountersEqual(serial.counters, parallel.counters);
}

TEST(ThreadParity, VqAttentionOutputsAndCountersBitIdentical)
{
    ThreadGuard guard;
    const std::size_t H = 4, T = 32, C = 16;
    vq::VQConfig cfg = vq::cq2();
    cfg.num_entries = 32;
    Rng rng(11);
    Tensor<float> kv({T, H * C});
    fillNormal(kv, rng);
    vq::KMeansOptions opts;
    opts.max_iters = 6;
    auto qt_k = vq::VectorQuantizer(cfg, opts).quantize(kv);
    auto qt_v = vq::VectorQuantizer(cfg, opts).quantize(kv);
    vq::reorderByFrequency(qt_k);
    vq::reorderByFrequency(qt_v);
    Tensor<float> q({H, C});
    fillNormal(q, rng);
    auto plan = engine::planAttentionKernel({1, H, T, C}, cfg,
                                            engine::OptLevel::O2,
                                            inputs());

    par::setThreads(1);
    auto serial = kernels::runVqAttention(plan, qt_k, qt_v, q);
    par::setThreads(8);
    auto parallel = kernels::runVqAttention(plan, qt_k, qt_v, q);

    expectBitIdentical(serial.output, parallel.output);
    expectCountersEqual(serial.counters, parallel.counters);
    EXPECT_EQ(serial.stats.reg_hits, parallel.stats.reg_hits);
    EXPECT_EQ(serial.stats.shared_hits, parallel.stats.shared_hits);
    EXPECT_EQ(serial.stats.global_hits, parallel.stats.global_hits);
}

TEST(ThreadParity, KMeansBitIdentical)
{
    ThreadGuard guard;
    Rng rng(13);
    auto data = generateClustered(2000, 8, ClusteredDataSpec{}, rng);

    par::setThreads(1);
    auto serial = vq::kMeans(data, 64);
    par::setThreads(8);
    auto parallel = vq::kMeans(data, 64);

    EXPECT_EQ(serial.assignments, parallel.assignments);
    EXPECT_EQ(serial.inertia, parallel.inertia); // bitwise, not NEAR
    EXPECT_EQ(serial.iterations, parallel.iterations);
    expectBitIdentical(serial.centroids, parallel.centroids);
}

/** Quantize `data` at 1 and at 8 threads and compare everything. */
void
expectQuantizeBitIdentical(const vq::VQConfig &cfg,
                           const vq::KMeansOptions &opts,
                           const Tensor<float> &data)
{
    ThreadGuard guard;
    par::setThreads(1);
    auto serial = vq::VectorQuantizer(cfg, opts).quantize(data);
    par::setThreads(8);
    auto parallel = vq::VectorQuantizer(cfg, opts).quantize(data);

    ASSERT_EQ(serial.codebooks.size(), parallel.codebooks.size());
    for (std::size_t i = 0; i < serial.codebooks.size(); ++i)
        expectBitIdentical(serial.codebooks[i].entries(),
                           parallel.codebooks[i].entries());
    ASSERT_EQ(serial.indexBytes(), parallel.indexBytes());
    for (std::size_t r = 0; r < serial.rows; ++r)
        for (std::size_t s = 0; s < serial.subspaces(); ++s)
            for (unsigned st = 0; st < serial.config.residuals; ++st)
                ASSERT_EQ(serial.indices.get(
                              serial.indexPosition(r, s, st)),
                          parallel.indices.get(
                              parallel.indexPosition(r, s, st)));
    expectBitIdentical(vq::VectorQuantizer::dequantize(serial),
                       vq::VectorQuantizer::dequantize(parallel));
}

TEST(ThreadParity, QuantizerBitIdentical)
{
    Rng rng(17);
    auto w = generateLlmWeight(64, 64, rng);
    vq::VQConfig cfg = vq::cq2(); // per-channel-group: parallel units
    cfg.num_entries = 32;
    vq::KMeansOptions opts;
    opts.max_iters = 6;
    expectQuantizeBitIdentical(cfg, opts, w);
}

/** K-means options of the access-histogram fits. */
vq::KMeansOptions
histogramFitOptions()
{
    vq::KMeansOptions opts;
    opts.max_iters = 4;
    opts.sample_limit = 1024;
    return opts;
}

TEST(ThreadParity, AqlmShapedQuantizerBitIdentical)
{
    // More centroids (4,096) than sampled rows (1,024): both residual
    // books are full of copies, which the nearest-entry index folds.
    ClusteredDataSpec spec;
    spec.num_clusters = 512;
    spec.popularity_alpha = 0.3;
    spec.duplicate_pool = 22;
    spec.duplicate_fraction = 0.16;
    Rng rng(19);
    auto data = generateClustered(2048, 8, spec, rng);
    expectQuantizeBitIdentical(vq::aqlm3(), histogramFitOptions(), data);
}

TEST(ThreadParity, LatticeQuantizerBitIdentical)
{
    ClusteredDataSpec spec;
    spec.num_clusters = 512;
    spec.popularity_alpha = 0.3;
    Rng rng(23);
    auto data = generateClustered(2048, 8, spec, rng);
    expectQuantizeBitIdentical(vq::quip4(), histogramFitOptions(), data);
}

} // namespace
} // namespace vqllm
