/**
 * @file
 * Tests for the VQ kernels: functional correctness against references,
 * exact counter behaviour across optimization levels, and the analytic
 * model's reproduction of the paper's qualitative results (Figs. 4, 13,
 * 14, 15, 16).
 */
#include <gtest/gtest.h>

#include <map>

#include "engine/template_engine.h"
#include "kernels/ewq_kernels.h"
#include "kernels/fp16_kernels.h"
#include "kernels/reference.h"
#include "kernels/vq_kernels.h"
#include "tensor/datagen.h"

namespace vqllm::kernels {
namespace {

using engine::AttnShape;
using engine::GemmShape;
using engine::KernelPlan;
using engine::OpKind;
using engine::OptLevel;
using engine::PlanInputs;
using gpusim::rtx4090;

PlanInputs
inputs()
{
    PlanInputs in;
    in.spec = &rtx4090();
    return in;
}

/** Small quantized weight for functional runs. */
vq::QuantizedTensor
smallWeight(const vq::VQConfig &base, std::size_t n = 32,
            std::size_t k = 32)
{
    vq::VQConfig cfg = base;
    cfg.num_entries = std::min<std::size_t>(cfg.num_entries, 32);
    if (cfg.lattice) {
        cfg.lattice_base_entries = 16;
        cfg.num_entries = 16u << cfg.vector_size;
    }
    Rng rng(11);
    auto w = generateLlmWeight(n, k, rng);
    vq::KMeansOptions opts;
    opts.max_iters = 6;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(w);
    vq::reorderByFrequency(qt);
    return qt;
}

TEST(VqGemvFunctional, MatchesReferenceOnDequantizedWeights)
{
    for (const auto &base : {vq::gptvq2(), vq::aqlm3(), vq::cq4()}) {
        auto qt = smallWeight(base);
        Rng rng(13);
        Tensor<float> x({qt.cols});
        fillNormal(x, rng);
        auto plan = engine::planWeightKernel(
            OpKind::GeMV, {1, qt.rows, qt.cols}, qt.config, OptLevel::O4,
            inputs());
        auto result = runVqGemv(plan, qt, x);
        auto dense = vq::VectorQuantizer::dequantize(qt);
        auto expect = referenceGemv(dense, x);
        for (std::size_t i = 0; i < qt.rows; ++i)
            EXPECT_NEAR(result.output[i], expect[i], 1e-3) << base.name;
    }
}

TEST(VqGemvFunctional, TierStatsFollowOptLevel)
{
    auto qt = smallWeight(vq::gptvq2(), 64, 32);
    Rng rng(17);
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);
    GemmShape shape{1, qt.rows, qt.cols};

    auto run_at = [&](OptLevel level) {
        auto plan = engine::planWeightKernel(OpKind::GeMV, shape,
                                             qt.config, level, inputs());
        return runVqGemv(plan, qt, x);
    };

    auto gc = run_at(OptLevel::GC);
    EXPECT_EQ(gc.stats.reg_hits, 0u);
    EXPECT_EQ(gc.stats.shared_hits, 0u);
    EXPECT_GT(gc.stats.global_hits, 0u);

    auto o1 = run_at(OptLevel::O1);
    EXPECT_EQ(o1.stats.reg_hits, 0u);
    EXPECT_GT(o1.stats.shared_hits, 0u);

    auto o2 = run_at(OptLevel::O2);
    EXPECT_GT(o2.stats.reg_hits, 0u);
    // The hottest entries are ranked first after reordering, so the
    // register tier must absorb more hits than its entry share.
    double reg_share = static_cast<double>(o2.stats.reg_hits) /
                       o2.stats.total();
    auto plan2 = engine::planWeightKernel(OpKind::GeMV, shape, qt.config,
                                          OptLevel::O2, inputs());
    double entry_share =
        static_cast<double>(plan2.cache_plan.n_reg) /
        qt.config.storedEntries();
    EXPECT_GT(reg_share, entry_share);
}

TEST(VqGemvFunctional, SharedFusionRoundTripsRegisterFusionShuffles)
{
    auto qt = smallWeight(vq::gptvq2(), 64, 64);
    Rng rng(19);
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);
    GemmShape shape{1, qt.rows, qt.cols};

    auto o3 = engine::planWeightKernel(OpKind::GeMV, shape, qt.config,
                                       OptLevel::O3, inputs());
    auto o4 = engine::planWeightKernel(OpKind::GeMV, shape, qt.config,
                                       OptLevel::O4, inputs());
    ASSERT_EQ(o3.fusion.level, engine::FusionLevel::Shared);
    ASSERT_EQ(o4.fusion.level, engine::FusionLevel::Register);

    auto r3 = runVqGemv(o3, qt, x);
    auto r4 = runVqGemv(o4, qt, x);
    EXPECT_GT(r3.counters.reg_to_shared_bytes, 0u);
    EXPECT_EQ(r3.counters.shuffle_ops, 0u);
    EXPECT_EQ(r4.counters.reg_to_shared_bytes, 0u);
    EXPECT_GT(r4.counters.shuffle_ops, 0u);
    // Identical numerics either way.
    EXPECT_EQ(maxAbsDiff(r3.output, r4.output), 0.0);
}

TEST(VqGemvFunctional, BankConflictsCountedExactly)
{
    auto qt = smallWeight(vq::gptvq2(), 64, 64);
    Rng rng(23);
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);
    auto plan = engine::planWeightKernel(
        OpKind::GeMV, {1, qt.rows, qt.cols}, qt.config, OptLevel::O1,
        inputs());
    auto r = runVqGemv(plan, qt, x);
    // Conflicted transactions at least the ideal count, at most 32x.
    EXPECT_GE(r.counters.smem_transactions,
              r.counters.smem_ideal_transactions);
    EXPECT_LE(r.counters.smem_transactions,
              32 * r.counters.smem_ideal_transactions);
    EXPECT_GT(r.counters.conflictMultiplier(), 1.0);
}

vq::QuantizedTensor
smallKv(const vq::VQConfig &base, std::size_t tokens, std::size_t heads,
        std::size_t channels, std::uint64_t seed)
{
    vq::VQConfig cfg = base;
    cfg.num_entries = 32;
    Rng rng(seed);
    // generateKvCache returns [heads, tokens, channels]; transpose to
    // [tokens, heads*channels] so rows are tokens (the quantizer's
    // per-channel-group scope then matches CQ's per-head-group books).
    auto orig = generateKvCache(heads, tokens, channels, rng);
    Tensor<float> flat({tokens, heads * channels});
    for (std::size_t h = 0; h < heads; ++h)
        for (std::size_t t = 0; t < tokens; ++t)
            for (std::size_t c = 0; c < channels; ++c)
                flat.at(t, h * channels + c) = orig.at(h, t, c);
    vq::KMeansOptions opts;
    opts.max_iters = 6;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(flat);
    vq::reorderByFrequency(qt);
    return qt;
}

TEST(VqAttentionFunctional, MatchesReferenceOnDequantizedKv)
{
    const std::size_t H = 2, T = 24, C = 8;
    auto qt_k = smallKv(vq::cq2(), T, H, C, 31);
    auto qt_v = smallKv(vq::cq2(), T, H, C, 37);
    Rng rng(41);
    Tensor<float> q({H, C});
    fillNormal(q, rng);

    AttnShape shape{1, H, T, C};
    auto plan = engine::planAttentionKernel(shape, qt_k.config,
                                            OptLevel::O4, inputs());
    auto result = runVqAttention(plan, qt_k, qt_v, q);

    // Reference over the dequantized caches.
    auto dense_k = vq::VectorQuantizer::dequantize(qt_k);
    auto dense_v = vq::VectorQuantizer::dequantize(qt_v);
    Tensor<float> k3({H, T, C}), v3({H, T, C});
    for (std::size_t h = 0; h < H; ++h)
        for (std::size_t t = 0; t < T; ++t)
            for (std::size_t c = 0; c < C; ++c) {
                k3.at(h, t, c) = dense_k.at(t, h * C + c);
                v3.at(h, t, c) = dense_v.at(t, h * C + c);
            }
    auto expect = referenceAttention(q, k3, v3);
    for (std::size_t h = 0; h < H; ++h)
        for (std::size_t c = 0; c < C; ++c)
            EXPECT_NEAR(result.output.at(h, c), expect.at(h, c), 1e-3);
}

TEST(VqAttentionFunctional, CountsLookupsForBothCaches)
{
    const std::size_t H = 2, T = 16, C = 8;
    auto qt_k = smallKv(vq::cq4(), T, H, C, 43);
    auto qt_v = smallKv(vq::cq4(), T, H, C, 47);
    Rng rng(53);
    Tensor<float> q({H, C});
    fillNormal(q, rng);
    AttnShape shape{1, H, T, C};
    auto plan = engine::planAttentionKernel(shape, qt_k.config,
                                            OptLevel::O2, inputs());
    auto r = runVqAttention(plan, qt_k, qt_v, q);
    // One lookup per subvector per residual for K and V each.
    std::uint64_t expected =
        2ull * T * (H * C / qt_k.config.vector_size) *
        qt_k.config.residuals;
    EXPECT_EQ(r.counters.dequant_lookups, expected);
    EXPECT_EQ(r.stats.total(), expected);
}

TEST(VqAttentionFunctional, RejectsHeadDimNotMultipleOfVectorSize)
{
    // CQ-2's 4-element sub-vectors quantize the 12 columns fine, but
    // would straddle the two 6-channel heads.
    const std::size_t H = 2, T = 16, C = 6;
    auto qt_k = smallKv(vq::cq2(), T, H, C, 43);
    auto qt_v = smallKv(vq::cq2(), T, H, C, 47);
    Tensor<float> q({H, C});
    AttnShape shape{1, H, T, C};
    auto plan = engine::planAttentionKernel(shape, qt_k.config,
                                            OptLevel::O2, inputs());
    EXPECT_DEATH(runVqAttention(plan, qt_k, qt_v, q),
                 "multiple of the K and V vector size");
}

// ---------------------------------------------------------------------
// Analytic model: the paper's qualitative results.
// ---------------------------------------------------------------------

/**
 * Synthetic offline-profiling histogram: Zipf-distributed access counts
 * over one codebook, standing in for the bench harness's real profiled
 * histograms.
 */
const vq::AccessHistogram &
zipfHistogram(const vq::VQConfig &cfg)
{
    static std::map<std::string, vq::AccessHistogram> memo;
    auto it = memo.find(cfg.name);
    if (it != memo.end())
        return it->second;
    auto weights = powerLawWeights(cfg.storedEntries(), 1.0);
    std::vector<std::uint64_t> counts(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        counts[i] = static_cast<std::uint64_t>(weights[i] * 100000.0) + 1;
    return memo.emplace(cfg.name, vq::AccessHistogram(std::move(counts)))
        .first->second;
}

KernelResult
attnLevel(const AttnShape &shape, const vq::VQConfig &cfg, OptLevel level)
{
    const auto &hist = zipfHistogram(cfg);
    PlanInputs in = inputs();
    in.histogram = &hist;
    auto plan = engine::planAttentionKernel(shape, cfg, level, in);
    return estimateVqAttentionKernel(rtx4090(), plan, &hist);
}

KernelResult
weightLevel(OpKind kind, const GemmShape &shape, const vq::VQConfig &cfg,
            OptLevel level)
{
    const auto &hist = zipfHistogram(cfg);
    PlanInputs in = inputs();
    in.histogram = &hist;
    auto plan = engine::planWeightKernel(kind, shape, cfg, level, in);
    return estimateVqWeightKernel(rtx4090(), plan, &hist);
}

TEST(VqModelFig4, GcAndScSlowerThanFp16ScBetterThanGc)
{
    AttnShape shape{1, 32, 1024, 128};
    auto fp16 = fp16AttentionEstimate(rtx4090(), shape);
    auto gc = attnLevel(shape, vq::cq2(), OptLevel::GC);
    auto sc = attnLevel(shape, vq::cq2(), OptLevel::SC);
    EXPECT_GT(gc.us(), fp16.us() * 1.5); // paper: 2.52x
    EXPECT_GT(sc.us(), fp16.us() * 1.2); // paper: ~1.6x
    EXPECT_LT(sc.us(), gc.us());
    // The counterintuitive counter: VQ moves MORE bytes global->shared
    // than FP16 despite 8x compression (duplicated codebook loads).
    EXPECT_GT(sc.counters.global_to_shared_bytes,
              fp16.counters.global_to_shared_bytes);
}

TEST(VqModelFig15, OptimizationLadderForAttention)
{
    AttnShape shape{1, 32, 1024, 128};
    auto gc = attnLevel(shape, vq::cq2(), OptLevel::GC);
    auto sc = attnLevel(shape, vq::cq2(), OptLevel::SC);
    auto o1 = attnLevel(shape, vq::cq2(), OptLevel::O1);
    auto o3 = attnLevel(shape, vq::cq2(), OptLevel::O3);
    auto o4 = attnLevel(shape, vq::cq2(), OptLevel::O4);
    auto fp16 = fp16AttentionEstimate(rtx4090(), shape);

    EXPECT_LT(sc.us(), gc.us());
    EXPECT_LT(o1.us(), sc.us()); // O1 restores occupancy
    EXPECT_LT(o3.us(), o1.us()); // dataflow removes duplicated books
    EXPECT_LE(o4.us(), o3.us() * 1.05); // O4 minor for attention
    // The optimized kernel finally beats FP16 (the paper's thesis).
    EXPECT_LT(o4.us(), fp16.us());
    // And the latency reduction vs GC lands in the paper's range.
    double reduction = 1.0 - o4.us() / gc.us();
    EXPECT_GT(reduction, 0.6);
    EXPECT_LT(reduction, 0.95);
}

TEST(VqModelFig15, O3CutsCodebookTraffic)
{
    AttnShape shape{8, 32, 4096, 128};
    auto o2 = attnLevel(shape, vq::cq2(), OptLevel::O2);
    auto o3 = attnLevel(shape, vq::cq2(), OptLevel::O3);
    EXPECT_LT(o3.counters.global_to_shared_bytes,
              o2.counters.global_to_shared_bytes / 2);
    EXPECT_GT(o3.counters.reduce_bytes, 0u);
}

TEST(VqModelFig14, GemvLadderAndScCollapseForAqlm)
{
    GemmShape shape{1, 4096, 4096};
    // AQLM: SC's 128 KiB working set tanks occupancy; O1 recovers.
    auto gc = weightLevel(OpKind::GeMV, shape, vq::aqlm3(), OptLevel::GC);
    auto sc = weightLevel(OpKind::GeMV, shape, vq::aqlm3(), OptLevel::SC);
    auto o1 = weightLevel(OpKind::GeMV, shape, vq::aqlm3(), OptLevel::O1);
    auto o3 = weightLevel(OpKind::GeMV, shape, vq::aqlm3(), OptLevel::O3);
    EXPECT_GT(sc.us(), gc.us() * 0.7); // barely better / near GC
    EXPECT_LT(o1.us(), sc.us() * 0.7);
    // The residual split removes duplicated codebook loads...
    EXPECT_LT(o3.counters.global_to_shared_bytes,
              o1.counters.global_to_shared_bytes);
    // ...at a bounded mainloop-duplication cost.
    EXPECT_LT(o3.us(), o1.us() * 1.1);
    // QuiP#: small codebook, SC is already fine and O1 matches it.
    auto q_sc = weightLevel(OpKind::GeMV, shape, vq::quip4(),
                            OptLevel::SC);
    auto q_gc = weightLevel(OpKind::GeMV, shape, vq::quip4(),
                            OptLevel::GC);
    EXPECT_LT(q_sc.us(), q_gc.us() * 0.3);
}

TEST(VqModelFig14, GemmO3HurtsO4Helps)
{
    GemmShape shape{4096, 4096, 4096};
    // O3 on a residual config duplicates mainloop work (Sec. VII-C).
    auto o2 = weightLevel(OpKind::GeMM, shape, vq::aqlm3(), OptLevel::O2);
    auto o3 = weightLevel(OpKind::GeMM, shape, vq::aqlm3(), OptLevel::O3);
    EXPECT_GT(o3.us(), o2.us() * 1.3);
    // O4's register fusion frees staging memory and restores occupancy.
    auto q_o3 = weightLevel(OpKind::GeMM, shape, vq::quip4(),
                            OptLevel::O3);
    auto q_o4 = weightLevel(OpKind::GeMM, shape, vq::quip4(),
                            OptLevel::O4);
    EXPECT_LT(q_o4.us(), q_o3.us() * 0.7);
}

TEST(VqModelFig16, OptimizedVqCompetitiveWithEwqAt4Bit)
{
    // GeMV BS16 at equivalent 4-bit: the best adaptive VQ version is
    // within ~20% of AWQ either way (paper: 0.88x, VQ slightly faster).
    GemmShape shape{16, 4096, 4096};
    double vq_best = 1e30;
    for (auto level : {OptLevel::O1, OptLevel::O2, OptLevel::O3,
                       OptLevel::O4})
        vq_best = std::min(
            vq_best,
            weightLevel(OpKind::GeMV, shape, vq::quip4(), level).us());
    auto awq = ewqGemvEstimate(rtx4090(), shape, 4);
    EXPECT_LT(vq_best, awq.us() * 1.3);
    EXPECT_GT(vq_best, awq.us() * 0.5);

    // Attention BS1 1k at 4-bit: CQ-4 close to QoQ (paper: 1.01x; our
    // model keeps the residual codebook/reduce overhead visible).
    AttnShape attn{1, 32, 1024, 128};
    double cq4_best = 1e30;
    for (auto level : {OptLevel::O1, OptLevel::O2, OptLevel::O3,
                       OptLevel::O4})
        cq4_best = std::min(cq4_best,
                            attnLevel(attn, vq::cq4(), level).us());
    auto qoq = ewqAttentionEstimate(rtx4090(), attn, 4);
    EXPECT_LT(cq4_best, qoq.us() * 1.6);
    EXPECT_GT(cq4_best, qoq.us() * 0.6);
}

TEST(VqModelFig13, SixtyFivePercentClassSpeedupsOverGc)
{
    // Fig. 13: best-vs-GC latency reductions average ~46% and reach
    // ~99% vs open-source (GC-class) implementations in Fig. 16.
    AttnShape attn{1, 32, 1024, 128};
    double best = 1e30, gc = attnLevel(attn, vq::cq2(),
                                       OptLevel::GC).us();
    for (auto level : {OptLevel::O1, OptLevel::O2, OptLevel::O3,
                       OptLevel::O4})
        best = std::min(best, attnLevel(attn, vq::cq2(), level).us());
    EXPECT_GT(1.0 - best / gc, 0.5);
}

TEST(VqModel, BiggerModelSimilarRelativeGains)
{
    // Llama-65B achieves speedups similar to 7B (Sec. VII-B).
    AttnShape a7{1, 32, 4096, 128};
    AttnShape a65{1, 64, 4096, 128};
    double red7 = 1.0 - attnLevel(a7, vq::cq2(), OptLevel::O4).us() /
                            attnLevel(a7, vq::cq2(), OptLevel::GC).us();
    double red65 = 1.0 - attnLevel(a65, vq::cq2(), OptLevel::O4).us() /
                             attnLevel(a65, vq::cq2(),
                                       OptLevel::GC).us();
    EXPECT_NEAR(red7, red65, 0.12);
}

TEST(VqModel, TierFractionsFollowHistogramSkew)
{
    cache::CachePlan plan;
    plan.n_reg = 2;
    plan.n_shared = 8;
    plan.total_entries = 16;
    plan.entry_bytes = 8;
    const vq::AccessHistogram hist(
        {100, 80, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1});
    auto f = tierHitFractions(plan, &hist);
    EXPECT_NEAR(f.reg, 180.0 / 218.0, 1e-9);
    EXPECT_NEAR(f.shared, 30.0 / 218.0, 1e-9);
    EXPECT_NEAR(f.global, 8.0 / 218.0, 1e-9);
    // Uniform fallback without a histogram.
    auto u = tierHitFractions(plan, nullptr);
    EXPECT_NEAR(u.reg, 2.0 / 16, 1e-9);
    EXPECT_NEAR(u.shared, 6.0 / 16, 1e-9);
}

} // namespace
} // namespace vqllm::kernels
