/**
 * @file
 * Determinism parity across thread counts: the functional VQ kernels,
 * the k-means fitter and the full quantizer must produce bit-identical
 * outputs AND identical event counters with VQLLM_THREADS=1 vs 8 (the
 * static chunk layout and chunk-order merges of common/parallel.h make
 * the thread count unobservable).
 *
 * The three functional kernels share one chunk/merge scaffold.  At
 * every ladder level and both thread counts they must also match, bit
 * for bit, a test-local copy of the per-kernel loops they replaced (one
 * private context per operand and chunk, merged chunk by chunk).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bitutils.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "engine/template_engine.h"
#include "gpusim/bank_conflict.h"
#include "kernels/reference.h"
#include "kernels/vq_kernels.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"
#include "vq/quantizer.h"

namespace vqllm {
namespace {

namespace ref {

using engine::FusionLevel;
using engine::KernelPlan;
using kernels::FunctionalResult;

class WarpAccessRecorder
{
  public:
    WarpAccessRecorder(const gpusim::GpuSpec &spec,
                       gpusim::KernelCounters &counters,
                       unsigned entry_bytes)
        : spec_(spec), counters_(counters), entryBytes_(entry_bytes)
    {
    }

    void
    record(cache::Tier tier, std::uint32_t shared_offset)
    {
        if (tier == cache::Tier::Shared)
            pending_.push_back(shared_offset);
        if (static_cast<int>(pending_.size()) == spec_.warp_size)
            flush();
    }

    void
    flush()
    {
        if (pending_.empty())
            return;
        unsigned phases = (entryBytes_ + 3) / 4;
        counters_.smem_ideal_transactions += phases;
        counters_.smem_transactions +=
            gpusim::warpTransactions(spec_, pending_, entryBytes_);
        counters_.shared_to_reg_bytes += pending_.size() * entryBytes_;
        pending_.clear();
    }

  private:
    const gpusim::GpuSpec &spec_;
    gpusim::KernelCounters &counters_;
    unsigned entryBytes_;
    std::vector<std::uint32_t> pending_;
};

struct FunctionalContext
{
    gpusim::KernelCounters counters;
    cache::AccessStats stats;
    std::vector<cache::CodebookCache> caches;
    WarpAccessRecorder recorder;

    FunctionalContext(const gpusim::GpuSpec &s, const KernelPlan &p,
                      const vq::QuantizedTensor &qt, bool count_load)
        : recorder(s, counters,
                   static_cast<unsigned>(qt.config.entryBytes()))
    {
        cache::CachePlan book_plan = p.cache_plan;
        book_plan.total_entries = qt.config.storedEntries();
        book_plan.n_shared =
            std::min(book_plan.n_shared, book_plan.total_entries);
        book_plan.n_reg = std::min(book_plan.n_reg, book_plan.n_shared);
        for (const auto &cb : qt.codebooks)
            caches.push_back(cache::CodebookCache::load(
                cb, book_plan, p.warpsPerBlock(),
                count_load ? &counters : nullptr));
    }

    FunctionalContext(const FunctionalContext &) = delete;
    FunctionalContext &operator=(const FunctionalContext &) = delete;

    void
    dequant(const vq::QuantizedTensor &qt, std::size_t row,
            std::size_t subspace, float *out)
    {
        const unsigned vec = qt.config.vector_size;
        for (unsigned d = 0; d < vec; ++d)
            out[d] = 0.0f;
        std::vector<float> dec(vec);
        std::size_t unit = qt.codebookUnit(row, subspace);
        for (unsigned stage = 0; stage < qt.config.residuals; ++stage) {
            auto &cache = caches[unit * qt.config.residuals + stage];
            std::uint32_t logical =
                qt.indices.get(qt.indexPosition(row, subspace, stage));
            cache::Tier tier = cache.access(logical, dec.data());
            ++counters.dequant_lookups;
            std::uint32_t stored = cache.codebook().storedIndexOf(logical);
            recorder.record(tier, tier == cache::Tier::Shared
                                      ? cache.sharedOffsetOf(stored)
                                      : 0);
            if (tier == cache::Tier::Global)
                counters.dram_read_bytes += qt.config.entryBytes();
            for (unsigned d = 0; d < vec; ++d)
                out[d] += dec[d];
        }
    }

    void
    finish()
    {
        recorder.flush();
        for (auto &cache : caches) {
            stats.reg_hits += cache.stats().reg_hits;
            stats.shared_hits += cache.stats().shared_hits;
            stats.global_hits += cache.stats().global_hits;
        }
    }
};

void
mergeContext(FunctionalResult &result, const gpusim::KernelCounters &c,
             const cache::AccessStats &s)
{
    result.counters += c;
    result.stats.reg_hits += s.reg_hits;
    result.stats.shared_hits += s.shared_hits;
    result.stats.global_hits += s.global_hits;
}

FunctionalResult
runVqGemv(const KernelPlan &plan, const vq::QuantizedTensor &qt,
          const Tensor<float> &x)
{
    const gpusim::GpuSpec &spec = gpusim::rtx4090();
    FunctionalResult result;
    result.output = Tensor<float>({qt.rows});
    const std::size_t chunks = par::chunkCount(qt.rows, 32);
    std::vector<gpusim::KernelCounters> part_counters(chunks);
    std::vector<cache::AccessStats> part_stats(chunks);
    par::parallelFor(qt.rows, 32, [&](const par::ChunkRange &c) {
        FunctionalContext ctx(spec, plan, qt, c.index == 0);
        const unsigned vec = qt.config.vector_size;
        std::vector<float> sub(vec);
        for (std::size_t r = c.begin; r < c.end; ++r) {
            double acc = 0;
            for (std::size_t s = 0; s < qt.subspaces(); ++s) {
                ctx.dequant(qt, r, s, sub.data());
                if (plan.fusion.level == FusionLevel::Shared) {
                    ctx.counters.reg_to_shared_bytes += vec * 2;
                    ctx.counters.shared_to_reg_bytes += vec * 2;
                }
                acc += static_cast<double>(
                    simd::dot(sub.data(), x.data() + s * vec, vec));
            }
            result.output[r] = static_cast<float>(acc);
        }
        ctx.finish();
        part_counters[c.index] = ctx.counters;
        part_stats[c.index] = ctx.stats;
    });
    for (std::size_t i = 0; i < chunks; ++i)
        mergeContext(result, part_counters[i], part_stats[i]);
    if (plan.fusion.level == FusionLevel::Register)
        result.counters.shuffle_ops +=
            qt.rows * qt.subspaces() / spec.warp_size *
            plan.fusion.num_shuffles;
    return result;
}

FunctionalResult
runVqGemm(const KernelPlan &plan, const vq::QuantizedTensor &qt,
          const Tensor<float> &x)
{
    const gpusim::GpuSpec &spec = gpusim::rtx4090();
    const std::size_t m = x.dim(0);
    FunctionalResult result;
    result.output = Tensor<float>({m, qt.rows});
    const std::size_t block_rows = engine::BaselineTiling::gemm_block_rows;
    const std::size_t k = qt.cols;
    const std::size_t chunks = par::chunkCount(qt.rows, 32);
    std::vector<gpusim::KernelCounters> part_counters(chunks);
    std::vector<cache::AccessStats> part_stats(chunks);
    par::parallelFor(qt.rows, 32, [&](const par::ChunkRange &c) {
        FunctionalContext ctx(spec, plan, qt, c.index == 0);
        const unsigned vec = qt.config.vector_size;
        std::vector<float> sub(vec);
        for (std::size_t m0 = 0; m0 < m; m0 += block_rows) {
            std::size_t m1 = std::min(m, m0 + block_rows);
            for (std::size_t r = c.begin; r < c.end; ++r) {
                for (std::size_t s = 0; s < qt.subspaces(); ++s) {
                    ctx.dequant(qt, r, s, sub.data());
                    if (plan.fusion.level == FusionLevel::Shared) {
                        ctx.counters.reg_to_shared_bytes += vec * 2;
                        ctx.counters.shared_to_reg_bytes += vec * 2;
                    }
                    for (std::size_t i = m0; i < m1; ++i) {
                        float acc = simd::dot(
                            sub.data(), x.data() + i * k + s * vec, vec);
                        result.output.at(i, r) += acc;
                        ctx.counters.flops += 2 * vec;
                    }
                }
            }
        }
        ctx.finish();
        part_counters[c.index] = ctx.counters;
        part_stats[c.index] = ctx.stats;
    });
    for (std::size_t i = 0; i < chunks; ++i)
        mergeContext(result, part_counters[i], part_stats[i]);
    if (plan.fusion.level == FusionLevel::Register)
        result.counters.shuffle_ops +=
            ceilDiv(m, block_rows) * qt.rows * qt.subspaces() /
            spec.warp_size * plan.fusion.num_shuffles;
    return result;
}

FunctionalResult
runVqAttention(const KernelPlan &plan, const vq::QuantizedTensor &qt_k,
               const vq::QuantizedTensor &qt_v, const Tensor<float> &q)
{
    const std::size_t heads = q.dim(0);
    const std::size_t channels = q.dim(1);
    const std::size_t tokens = qt_k.rows;
    const gpusim::GpuSpec &spec = gpusim::rtx4090();
    const unsigned vec = qt_k.config.vector_size;
    const double inv_sqrt_d =
        1.0 / std::sqrt(static_cast<double>(channels));
    FunctionalResult result;
    result.output = Tensor<float>({heads, channels});
    const std::size_t groups_per_head = channels / vec;
    const std::size_t chunks = par::chunkCount(heads, 1);
    std::vector<gpusim::KernelCounters> part_counters(chunks);
    std::vector<cache::AccessStats> part_stats(chunks);
    par::parallelFor(heads, 1, [&](const par::ChunkRange &c) {
        FunctionalContext ctx_k(spec, plan, qt_k, c.index == 0);
        FunctionalContext ctx_v(spec, plan, qt_v, c.index == 0);
        std::vector<float> sub(vec);
        std::vector<float> logits(tokens, 0.0f);
        for (std::size_t h = c.begin; h < c.end; ++h) {
            for (std::size_t t = 0; t < tokens; ++t) {
                double acc = 0;
                for (std::size_t g = 0; g < groups_per_head; ++g) {
                    std::size_t s = h * groups_per_head + g;
                    ctx_k.dequant(qt_k, t, s, sub.data());
                    acc += static_cast<double>(simd::dot(
                        sub.data(), q.data() + h * channels + g * vec,
                        vec));
                }
                logits[t] = static_cast<float>(acc * inv_sqrt_d);
            }
            kernels::softmaxInPlace(logits);
            for (std::size_t t = 0; t < tokens; ++t) {
                for (std::size_t g = 0; g < groups_per_head; ++g) {
                    std::size_t s = h * groups_per_head + g;
                    ctx_v.dequant(qt_v, t, s, sub.data());
                    if (plan.fusion.level == FusionLevel::Shared) {
                        ctx_v.counters.reg_to_shared_bytes += vec * 2;
                        ctx_v.counters.shared_to_reg_bytes += vec * 2;
                    }
                    simd::fmaInto(
                        result.output.data() + h * channels + g * vec,
                        sub.data(), logits[t], vec);
                }
            }
        }
        ctx_k.finish();
        ctx_v.finish();
        part_counters[c.index] = ctx_k.counters;
        part_counters[c.index] += ctx_v.counters;
        part_stats[c.index] = ctx_k.stats;
        part_stats[c.index].reg_hits += ctx_v.stats.reg_hits;
        part_stats[c.index].shared_hits += ctx_v.stats.shared_hits;
        part_stats[c.index].global_hits += ctx_v.stats.global_hits;
    });
    for (std::size_t i = 0; i < chunks; ++i)
        mergeContext(result, part_counters[i], part_stats[i]);
    if (plan.fusion.level == FusionLevel::Register)
        result.counters.shuffle_ops +=
            tokens * qt_v.subspaces() / spec.warp_size *
            plan.fusion.num_shuffles;
    return result;
}

} // namespace ref

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

void
expectSameRun(const kernels::FunctionalResult &a,
              const kernels::FunctionalResult &b)
{
    expectBitIdentical(a.output, b.output);
    expectCountersEqual(a.counters, b.counters);
    EXPECT_EQ(a.stats.reg_hits, b.stats.reg_hits);
    EXPECT_EQ(a.stats.shared_hits, b.stats.shared_hits);
    EXPECT_EQ(a.stats.global_hits, b.stats.global_hits);
}

/**
 * Run one functional kernel at every ladder level with 1 and 8 threads:
 * each run must match the per-kernel reference loop at the same thread
 * count, and the 8-thread run the 1-thread one.
 *
 * @return levels whose plan fused in registers with shuffles
 */
template <typename Plan, typename Run, typename RefRun>
int
expectParityAtEveryLevel(const Plan &plan_at, const Run &run,
                         const RefRun &ref_run)
{
    ThreadGuard guard;
    int shuffled = 0;
    for (engine::OptLevel level : engine::kAllOptLevels) {
        SCOPED_TRACE(engine::optLevelName(level));
        const engine::KernelPlan plan = plan_at(level);
        if (plan.fusion.level == engine::FusionLevel::Register &&
            plan.fusion.num_shuffles > 0)
            ++shuffled;
        par::setThreads(1);
        auto serial = run(plan);
        expectSameRun(serial, ref_run(plan));
        par::setThreads(8);
        auto parallel = run(plan);
        expectSameRun(parallel, ref_run(plan));
        expectSameRun(serial, parallel);
    }
    return shuffled;
}

TEST(ThreadParity, VqGemmOutputsAndCountersBitIdentical)
{
    auto qt = smallWeight(96, 64, 3);
    Rng rng(5);
    Tensor<float> x({80, qt.cols}); // two row blocks, the last partial
    fillNormal(x, rng);
    const auto hist = vq::profileAccesses(qt);
    engine::PlanInputs in = inputs();
    in.histogram = &hist.histograms[0];
    int shuffled = expectParityAtEveryLevel(
        [&](engine::OptLevel level) {
            return engine::planWeightKernel(
                engine::OpKind::GeMM, {80, qt.rows, qt.cols}, qt.config,
                level, in);
        },
        [&](const engine::KernelPlan &p) {
            return kernels::runVqGemm(p, qt, x);
        },
        [&](const engine::KernelPlan &p) {
            return ref::runVqGemm(p, qt, x);
        });
    EXPECT_GT(shuffled, 0);
}

TEST(ThreadParity, VqGemvOutputsAndCountersBitIdentical)
{
    auto qt = smallWeight(128, 64, 7);
    Rng rng(9);
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);
    int shuffled = expectParityAtEveryLevel(
        [&](engine::OptLevel level) {
            return engine::planWeightKernel(
                engine::OpKind::GeMV, {1, qt.rows, qt.cols}, qt.config,
                level, inputs());
        },
        [&](const engine::KernelPlan &p) {
            return kernels::runVqGemv(p, qt, x);
        },
        [&](const engine::KernelPlan &p) {
            return ref::runVqGemv(p, qt, x);
        });
    EXPECT_GT(shuffled, 0);
}

TEST(ThreadParity, VqAttentionOutputsAndCountersBitIdentical)
{
    const std::size_t H = 4, T = 40, C = 16;
    vq::VQConfig cfg = vq::cq2();
    cfg.num_entries = 32;
    Rng rng(11);
    Tensor<float> k({T, H * C}), v({T, H * C});
    fillNormal(k, rng);
    fillNormal(v, rng);
    vq::KMeansOptions opts;
    opts.max_iters = 6;
    auto qt_k = vq::VectorQuantizer(cfg, opts).quantize(k);
    auto qt_v = vq::VectorQuantizer(cfg, opts).quantize(v);
    vq::reorderByFrequency(qt_k);
    vq::reorderByFrequency(qt_v);
    Tensor<float> q({H, C});
    fillNormal(q, rng);
    int shuffled = expectParityAtEveryLevel(
        [&](engine::OptLevel level) {
            return engine::planAttentionKernel({1, H, T, C}, cfg, level,
                                               inputs());
        },
        [&](const engine::KernelPlan &p) {
            return kernels::runVqAttention(p, qt_k, qt_v, q);
        },
        [&](const engine::KernelPlan &p) {
            return ref::runVqAttention(p, qt_k, qt_v, q);
        });
    EXPECT_GT(shuffled, 0);
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
