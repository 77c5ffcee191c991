/**
 * @file
 * The histogram-derived inputs of the analytic VQ estimators, pinned bit
 * for bit.  vq::AccessHistogram derives its frequency order, descending
 * counts and moments once; the planner (entriesAbove), tierHitFractions
 * and the memoized bank-conflict multiplier read them.  This file keeps
 * the derivations they replaced as test-local references — a stable
 * sort per call summed by rank, a copy-and-sort of the counts for the
 * conflict weights, a threshold scan over the counts, and an uncached
 * Monte-Carlo run — with a copy of the estimators' counter assembly,
 * and checks every fraction, counter and latency term against them.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/bitutils.h"
#include "common/hash.h"
#include "common/rng.h"
#include "engine/template_engine.h"
#include "gpusim/bank_conflict.h"
#include "kernels/vq_kernels.h"
#include "tensor/datagen.h"

namespace vqllm::kernels {
namespace {

using engine::KernelPlan;
using engine::OpKind;
using engine::OptLevel;
using Counts = std::vector<std::uint64_t>;

namespace ref {

/** The calibration the estimators read (vq_kernels.h), passed to the
 *  reference explicitly. */
struct VqCostParams
{
    double gc_l1_hit = kGcL1Hit;
    double sector_bytes = kSectorBytes;
    int conflict_samples = kConflictSamples;
    std::uint64_t conflict_seed = kConflictSeed;
};

std::vector<std::uint32_t>
frequencyOrder(const Counts &counts)
{
    std::vector<std::uint32_t> order(counts.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return counts[a] > counts[b];
                     });
    return order;
}

std::uint64_t
total(const Counts &counts)
{
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

double
mean(const Counts &counts)
{
    if (counts.empty())
        return 0;
    return static_cast<double>(total(counts)) /
           static_cast<double>(counts.size());
}

double
stddev(const Counts &counts)
{
    if (counts.empty())
        return 0;
    double mu = mean(counts);
    double acc = 0;
    for (auto c : counts) {
        double d = static_cast<double>(c) - mu;
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(counts.size()));
}

std::size_t
entriesAbove(const Counts &counts, double k_sigma)
{
    double threshold = mean(counts) + k_sigma * stddev(counts);
    std::size_t n = 0;
    for (auto c : counts)
        if (static_cast<double>(c) > threshold)
            ++n;
    return n;
}

double
fractionBelowMean(const Counts &counts)
{
    if (counts.empty())
        return 0;
    double mu = mean(counts);
    std::size_t n = 0;
    for (auto c : counts)
        if (static_cast<double>(c) < mu)
            ++n;
    return static_cast<double>(n) / static_cast<double>(counts.size());
}

TierFractions
tierHitFractions(const cache::CachePlan &plan, const Counts *counts)
{
    TierFractions f;
    if (plan.total_entries == 0) {
        f.global = 1.0;
        return f;
    }
    if (counts && counts->size() == plan.total_entries &&
        total(*counts) > 0) {
        auto order = frequencyOrder(*counts);
        std::uint64_t reg = 0, shared = 0, all = total(*counts);
        for (std::size_t rank = 0; rank < order.size(); ++rank) {
            std::uint64_t cnt = (*counts)[order[rank]];
            if (rank < plan.n_reg)
                reg += cnt;
            else if (rank < plan.n_shared)
                shared += cnt;
        }
        f.reg = static_cast<double>(reg) / all;
        f.shared = static_cast<double>(shared) / all;
    } else {
        f.reg = static_cast<double>(plan.n_reg) / plan.total_entries;
        f.shared = static_cast<double>(plan.n_shared - plan.n_reg) /
                   plan.total_entries;
    }
    f.global = std::max(0.0, 1.0 - f.reg - f.shared);
    return f;
}

double
sharedConflictMultiplier(const gpusim::GpuSpec &spec,
                         const cache::CachePlan &plan, const Counts *counts,
                         const VqCostParams &params)
{
    std::size_t resident = plan.sharedEntries();
    if (resident == 0)
        return 1.0;
    std::vector<double> weights;
    if (counts && counts->size() == plan.total_entries) {
        Counts sorted(*counts);
        std::sort(sorted.rbegin(), sorted.rend());
        for (std::size_t rank = plan.n_reg; rank < plan.n_shared; ++rank)
            weights.push_back(
                static_cast<double>(
                    sorted[std::min(rank, sorted.size() - 1)]) +
                1.0);
    } else {
        weights.assign(resident, 1.0);
    }
    return gpusim::expectedConflictMultiplier(
        spec, weights, static_cast<unsigned>(plan.entry_bytes),
        params.conflict_samples, params.conflict_seed);
}

std::uint64_t
unpackOpsPerLookup(const vq::VQConfig &config)
{
    if (config.lattice)
        return 2;
    if (config.indexBits() % 8 != 0)
        return 3;
    return 1;
}

void
addCodebookCounters(gpusim::KernelCounters &c, const KernelPlan &plan,
                    const gpusim::GpuSpec &spec, const Counts *counts,
                    const VqCostParams &params, std::uint64_t lookups,
                    std::uint64_t dequant_bytes,
                    std::uint64_t exchanged_subvectors)
{
    const auto &cfg = plan.config;
    TierFractions f = tierHitFractions(plan.cache_plan, counts);
    double coverage =
        plan.cache_plan.total_entries == 0
            ? 0.0
            : static_cast<double>(plan.cache_plan.n_shared) /
                  plan.cache_plan.total_entries;
    std::uint64_t preload = static_cast<std::uint64_t>(
        static_cast<double>(plan.dataflow.codebook_bytes) * coverage);
    if (plan.level == OptLevel::GC)
        preload = 0;
    c.dram_read_bytes += preload;
    c.global_to_shared_bytes += preload;

    double global_frac = plan.level == OptLevel::GC ? 1.0 : f.global;
    std::uint64_t global_lookups = static_cast<std::uint64_t>(
        static_cast<double>(lookups) * global_frac);
    c.dram_read_bytes += static_cast<std::uint64_t>(
        static_cast<double>(global_lookups) * (1.0 - params.gc_l1_hit) *
        params.sector_bytes);

    std::uint64_t shared_lookups = static_cast<std::uint64_t>(
        static_cast<double>(lookups) * f.shared);
    unsigned phases = (static_cast<unsigned>(cfg.entryBytes()) + 3) / 4;
    std::uint64_t ideal = shared_lookups / spec.warp_size * phases;
    double mult =
        sharedConflictMultiplier(spec, plan.cache_plan, counts, params);
    c.smem_ideal_transactions += ideal;
    c.smem_transactions += static_cast<std::uint64_t>(
        static_cast<double>(ideal) * mult);
    c.shared_to_reg_bytes += shared_lookups * cfg.entryBytes();

    c.dequant_lookups += lookups;
    c.unpack_ops += lookups * unpackOpsPerLookup(cfg);

    if (plan.fusion.level == engine::FusionLevel::Shared) {
        c.reg_to_shared_bytes += dequant_bytes;
        c.shared_to_reg_bytes += dequant_bytes;
        std::uint64_t staging_trans = 2 * dequant_bytes / 128;
        c.smem_transactions += staging_trans;
        c.smem_ideal_transactions += staging_trans;
    } else if (plan.fusion.num_shuffles > 0) {
        c.shuffle_ops += exchanged_subvectors / spec.warp_size *
                         plan.fusion.num_shuffles;
    }
    c.reduce_bytes += plan.dataflow.reduce_bytes;
}

KernelResult
finish(const gpusim::GpuSpec &spec, const KernelPlan &plan,
       const gpusim::KernelCounters &c)
{
    gpusim::LaunchConfig launch;
    launch.grid_blocks = plan.grid_blocks;
    launch.block = plan.block;
    launch.uses_tensor_cores = plan.uses_tensor_cores;
    return finishEstimate(spec, launch, c);
}

KernelResult
estimateWeight(const gpusim::GpuSpec &spec, const KernelPlan &plan,
               const Counts *counts, const VqCostParams &params)
{
    const auto &shape = plan.gemm;
    const auto &cfg = plan.config;
    const double dup = plan.dataflow.compute_duplication;
    std::uint64_t redequant =
        plan.kind == OpKind::GeMM
            ? std::max<std::uint64_t>(
                  1, ceilDiv(shape.m,
                             engine::BaselineTiling::gemm_block_rows))
            : 1;
    std::uint64_t weight_elems =
        static_cast<std::uint64_t>(shape.k) * shape.n;
    std::uint64_t subvectors = weight_elems / cfg.vector_size * redequant;
    std::uint64_t lookups = subvectors * cfg.residuals;

    gpusim::KernelCounters c;
    std::uint64_t idx_bytes = static_cast<std::uint64_t>(
        static_cast<double>(weight_elems) * cfg.bitsPerElement() / 8.0 *
        redequant);
    std::uint64_t act_bytes = static_cast<std::uint64_t>(
        static_cast<double>(shape.m) * shape.k * 2 * dup);
    c.dram_read_bytes = idx_bytes + act_bytes;
    c.dram_write_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;
    c.global_to_shared_bytes += idx_bytes + act_bytes;
    std::uint64_t tile_trans = (idx_bytes + act_bytes) * 2 / 128;
    c.smem_transactions += tile_trans;
    c.smem_ideal_transactions += tile_trans;
    c.flops = static_cast<std::uint64_t>(
        static_cast<double>(shape.flops()) * dup);
    c.flops += lookups * cfg.vector_size;
    std::uint64_t dequant_bytes = weight_elems * 2 * redequant;
    addCodebookCounters(c, plan, spec, counts, params, lookups,
                        dequant_bytes, subvectors);
    return finish(spec, plan, c);
}

KernelResult
estimateAttention(const gpusim::GpuSpec &spec, const KernelPlan &plan,
                  const Counts *counts, const VqCostParams &params)
{
    const auto &shape = plan.attn;
    const auto &cfg = plan.config;
    std::uint64_t kv_elems = shape.kvElements();
    std::uint64_t subvectors = kv_elems / cfg.vector_size;
    std::uint64_t lookups = subvectors * cfg.residuals;

    gpusim::KernelCounters c;
    std::uint64_t idx_bytes = static_cast<std::uint64_t>(
        static_cast<double>(kv_elems) * cfg.bitsPerElement() / 8.0);
    std::uint64_t q_bytes = static_cast<std::uint64_t>(shape.batch) *
                            shape.heads * shape.head_dim * 2;
    c.dram_read_bytes = idx_bytes + q_bytes;
    c.dram_write_bytes = shape.outputElements() * 2;
    c.global_to_shared_bytes += idx_bytes;
    std::uint64_t tile_trans = idx_bytes * 2 / 128;
    c.smem_transactions += tile_trans;
    c.smem_ideal_transactions += tile_trans;
    c.flops = shape.flops() +
              5ull * shape.batch * shape.heads * shape.seq_len;
    c.flops += lookups * cfg.vector_size;
    std::uint64_t v_bytes = kv_elems / 2 * 2;
    std::uint64_t v_subvectors = subvectors / 2;
    addCodebookCounters(c, plan, spec, counts, params, lookups, v_bytes,
                        v_subvectors);
    if (plan.level < OptLevel::O3) {
        std::uint64_t bh = static_cast<std::uint64_t>(shape.batch) *
                           shape.heads;
        std::uint64_t blocks_t = ceilDiv(
            shape.seq_len, engine::BaselineTiling::attn_block_tokens);
        c.reduce_bytes += bh * blocks_t * (shape.head_dim + 2) * 4;
    }
    return finish(spec, plan, c);
}

} // namespace ref

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameFractions(const TierFractions &a, const TierFractions &b,
                    const std::string &what)
{
    EXPECT_EQ(bits(a.reg), bits(b.reg)) << what;
    EXPECT_EQ(bits(a.shared), bits(b.shared)) << what;
    EXPECT_EQ(bits(a.global), bits(b.global)) << what;
}

void
expectSameResult(const KernelResult &a, const KernelResult &b,
                 const std::string &what)
{
    const auto &x = a.counters, &y = b.counters;
    EXPECT_EQ(x.dram_read_bytes, y.dram_read_bytes) << what;
    EXPECT_EQ(x.dram_write_bytes, y.dram_write_bytes) << what;
    EXPECT_EQ(x.global_to_shared_bytes, y.global_to_shared_bytes) << what;
    EXPECT_EQ(x.shared_to_reg_bytes, y.shared_to_reg_bytes) << what;
    EXPECT_EQ(x.reg_to_shared_bytes, y.reg_to_shared_bytes) << what;
    EXPECT_EQ(x.smem_transactions, y.smem_transactions) << what;
    EXPECT_EQ(x.smem_ideal_transactions, y.smem_ideal_transactions)
        << what;
    EXPECT_EQ(x.flops, y.flops) << what;
    EXPECT_EQ(x.dequant_lookups, y.dequant_lookups) << what;
    EXPECT_EQ(x.unpack_ops, y.unpack_ops) << what;
    EXPECT_EQ(x.shuffle_ops, y.shuffle_ops) << what;
    EXPECT_EQ(x.reduce_bytes, y.reduce_bytes) << what;
    const auto &p = a.latency, &q = b.latency;
    EXPECT_EQ(bits(p.dram_us), bits(q.dram_us)) << what;
    EXPECT_EQ(bits(p.smem_us), bits(q.smem_us)) << what;
    EXPECT_EQ(bits(p.compute_us), bits(q.compute_us)) << what;
    EXPECT_EQ(bits(p.latency_bound_us), bits(q.latency_bound_us)) << what;
    EXPECT_EQ(bits(p.reduce_us), bits(q.reduce_us)) << what;
    EXPECT_EQ(bits(p.launch_us), bits(q.launch_us)) << what;
    EXPECT_EQ(bits(p.total_us), bits(q.total_us)) << what;
    EXPECT_EQ(bits(p.grid_fill), bits(q.grid_fill)) << what;
    EXPECT_EQ(bits(p.throughput_factor), bits(q.throughput_factor))
        << what;
}

/** A named histogram input; `counts` null means "no histogram". */
struct HistCase
{
    std::string name;
    std::shared_ptr<const Counts> counts;
    std::shared_ptr<const vq::AccessHistogram> hist;
};

HistCase
histCase(std::string name, Counts counts)
{
    HistCase h;
    h.name = std::move(name);
    h.counts = std::make_shared<const Counts>(counts);
    h.hist = std::make_shared<const vq::AccessHistogram>(std::move(counts));
    return h;
}

/** Zipf-skewed counts scattered over the entries in a seeded order, so
 *  the frequency order is not the identity. */
Counts
scatteredZipf(std::size_t entries, double alpha, Rng &rng)
{
    auto weights = powerLawWeights(entries, alpha);
    Counts counts(entries);
    for (std::size_t i = 0; i < entries; ++i)
        counts[i] = static_cast<std::uint64_t>(weights[i] * 1e5) +
                    rng.uniformInt(3);
    for (std::size_t i = entries; i > 1; --i)
        std::swap(counts[i - 1], counts[rng.uniformInt(i)]);
    return counts;
}

/** Histogram inputs for a book of `entries` stored entries: skewed,
 *  heavily tied, all-zero, one entry, 4,096 entries and a size that
 *  mismatches the plan (the uniform branch), plus none. */
std::vector<HistCase>
histCases(std::size_t entries, Rng &rng)
{
    std::vector<HistCase> cases;
    cases.push_back({"none", nullptr, nullptr});
    cases.push_back(histCase("zipf", scatteredZipf(entries, 1.1, rng)));
    Counts ties(entries);
    for (auto &c : ties)
        c = rng.uniformInt(4) * 1000;
    cases.push_back(histCase("ties", ties));
    cases.push_back(histCase("zeros", Counts(entries, 0)));
    cases.push_back(histCase("one", Counts{7}));
    cases.push_back(histCase("4096", scatteredZipf(4096, 0.8, rng)));
    cases.push_back(
        histCase("mismatch", scatteredZipf(entries + 3, 1.0, rng)));
    return cases;
}

TEST(HistogramFacts, MatchReferenceDerivations)
{
    Rng rng(2025);
    for (std::size_t entries : {1, 2, 7, 256, 4096}) {
        for (const HistCase &h : histCases(entries, rng)) {
            if (!h.hist)
                continue;
            const Counts &counts = *h.counts;
            const vq::AccessHistogram &hist = *h.hist;
            const std::string what =
                h.name + " over " + std::to_string(counts.size());
            EXPECT_EQ(hist.counts(), counts) << what;
            EXPECT_EQ(hist.size(), counts.size()) << what;
            EXPECT_EQ(hist.total(), ref::total(counts)) << what;
            EXPECT_EQ(bits(hist.mean()), bits(ref::mean(counts))) << what;
            EXPECT_EQ(bits(hist.stddev()), bits(ref::stddev(counts)))
                << what;
            const auto order = ref::frequencyOrder(counts);
            EXPECT_EQ(hist.frequencyOrder(), order) << what;
            Counts sorted(counts);
            std::sort(sorted.rbegin(), sorted.rend());
            EXPECT_EQ(hist.descendingCounts(), sorted) << what;
            for (double k : {-1.0, 0.0, 0.5, 1.0, 3.0, 100.0})
                EXPECT_EQ(hist.entriesAbove(k), ref::entriesAbove(counts, k))
                    << what << " k=" << k;
            EXPECT_EQ(bits(hist.fractionBelowMean()),
                      bits(ref::fractionBelowMean(counts)))
                << what;
            const std::uint64_t digest =
                fnv1a(counts.data(), counts.size() * sizeof counts[0]);
            EXPECT_EQ(hist.digest(), digest == 0 ? 1 : digest) << what;
        }
    }
    // The empty histogram, default-constructed or built, agrees too.
    const vq::AccessHistogram empty, built{Counts{}};
    for (const auto *h : {&empty, &built}) {
        EXPECT_EQ(h->size(), 0u);
        EXPECT_EQ(h->total(), 0u);
        EXPECT_EQ(bits(h->mean()), bits(0.0));
        EXPECT_EQ(bits(h->stddev()), bits(0.0));
        EXPECT_EQ(h->entriesAbove(3.0), 0u);
        EXPECT_EQ(bits(h->fractionBelowMean()), bits(0.0));
        EXPECT_EQ(h->digest(), kFnv1aBasis);
    }
}

TEST(HistogramFacts, TierFractionsMatchRankSumsOnHandBuiltPlans)
{
    Rng rng(7331);
    for (std::size_t entries : {1, 2, 16, 256, 4096}) {
        for (const HistCase &h : histCases(entries, rng)) {
            for (std::size_t total : {entries, entries + 3, std::size_t{0}}) {
                for (auto [reg, shared] :
                     {std::pair<std::size_t, std::size_t>{0, 0},
                      {0, total},
                      {1, total / 2 + 1},
                      {total / 3, total},
                      {total, total},
                      {2, 1}}) {
                    cache::CachePlan plan;
                    plan.n_reg = reg;
                    plan.n_shared = shared;
                    plan.total_entries = total;
                    plan.entry_bytes = 8;
                    expectSameFractions(
                        tierHitFractions(plan, h.hist.get()),
                        ref::tierHitFractions(plan, h.counts.get()),
                        h.name + " entries=" + std::to_string(entries) +
                            " total=" + std::to_string(total) +
                            " reg=" + std::to_string(reg) +
                            " shared=" + std::to_string(shared));
                }
            }
        }
    }
}

/**
 * Plan, estimate and compare against the reference for every
 * histogram case of one config at all six levels.
 */
void
checkConfig(const gpusim::GpuSpec &spec, const vq::VQConfig &cfg,
            const std::vector<HistCase> &cases)
{
    const ref::VqCostParams params;
    const bool kv = cfg.scope == vq::CodebookScope::PerChannelGroup;
    for (OptLevel level : engine::kAllOptLevels) {
        for (const HistCase &h : cases) {
            engine::PlanInputs in;
            in.spec = &spec;
            in.histogram = h.hist.get();
            std::vector<KernelPlan> plans;
            if (kv) {
                plans.push_back(engine::planAttentionKernel(
                    {1, 32, 4096, 128}, cfg, level, in));
                plans.push_back(engine::planAttentionKernel(
                    {8, 32, 1024, 128, 8}, cfg, level, in));
            } else {
                plans.push_back(engine::planWeightKernel(
                    OpKind::GeMV, {1, 4096, 4096}, cfg, level, in));
                plans.push_back(engine::planWeightKernel(
                    OpKind::GeMM, {4096, 4096, 4096}, cfg, level, in));
            }
            for (const KernelPlan &plan : plans) {
                const std::string what =
                    cfg.name + " " + engine::optLevelName(level) + " " +
                    engine::opKindName(plan.kind) + " hist=" + h.name;
                expectSameFractions(
                    tierHitFractions(plan.cache_plan, h.hist.get()),
                    ref::tierHitFractions(plan.cache_plan, h.counts.get()),
                    what);
                if (kv)
                    expectSameResult(
                        estimateVqAttentionKernel(spec, plan, h.hist.get()),
                        ref::estimateAttention(spec, plan, h.counts.get(),
                                               params),
                        what);
                else
                    expectSameResult(
                        estimateVqWeightKernel(spec, plan, h.hist.get()),
                        ref::estimateWeight(spec, plan, h.counts.get(),
                                            params),
                        what);
            }
        }
    }
}

TEST(HistogramEstimates, TableIIConfigsMatchReferenceAtEveryLevel)
{
    Rng rng(1312);
    for (const vq::VQConfig &cfg : vq::paperConfigs())
        checkConfig(gpusim::rtx4090(), cfg,
                    histCases(cfg.storedEntries(), rng));
}

TEST(HistogramEstimates, MemoKeyCoversSpecParamsAndContent)
{
    // The conflict memo is keyed by the histogram digest and shared
    // ranks (or the resident count), entry width, warp size and bank
    // count.  After the default sweep has filled the memo, a GPU with
    // half the banks must get its own estimate, and so must a book of
    // the same size and boundaries with other counts.
    Rng rng(99);
    const vq::VQConfig cfg = vq::gptvq2();
    auto cases = histCases(cfg.storedEntries(), rng);
    checkConfig(gpusim::rtx4090(), cfg, cases);

    gpusim::GpuSpec narrow = gpusim::rtx4090();
    narrow.smem_banks = 16;
    checkConfig(narrow, cfg, cases);

    // The skewed book with its cold half one access warmer: the same
    // hot entries, so the same cache boundaries, but other weights in
    // the shared slice.
    Counts warmer = *cases[1].counts;
    const std::uint64_t median = cases[1].hist->descendingCounts()[
        warmer.size() / 2];
    for (auto &c : warmer)
        c += c < median ? 1 : 0;
    std::vector<HistCase> other = {histCase("zipf-warmer", warmer)};
    engine::PlanInputs in;
    in.spec = &gpusim::rtx4090();
    in.histogram = cases[1].hist.get();
    const auto plan = engine::planWeightKernel(
        OpKind::GeMV, {1, 4096, 4096}, cfg, OptLevel::O4, in);
    in.histogram = other[0].hist.get();
    const auto plan_warmer = engine::planWeightKernel(
        OpKind::GeMV, {1, 4096, 4096}, cfg, OptLevel::O4, in);
    ASSERT_EQ(plan.cache_plan.n_reg, plan_warmer.cache_plan.n_reg);
    ASSERT_EQ(plan.cache_plan.n_shared, plan_warmer.cache_plan.n_shared);
    ASSERT_GT(plan.cache_plan.sharedEntries(), 0u);
    checkConfig(gpusim::rtx4090(), cfg, other);
}

} // namespace
} // namespace vqllm::kernels
