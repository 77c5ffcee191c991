/**
 * @file
 * Tests for the template engine (Alg. 2 offline phase): plans across the
 * optimization ladder are internally consistent and reproduce the
 * paper's qualitative structure (occupancy preserved by O1+, SC greedy,
 * grids scale with model size).
 *
 * The two planners share one ladder step.  A test-local copy of the
 * planners as they were written before (each applying the ladder
 * itself) pins every plan field, summary(), estimate, symbol and
 * emitted source over the Fig. 13 matrix plus GQA attention, at all six
 * levels, with and without a histogram.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "codegen/cuda_emitter.h"
#include "common/bitutils.h"
#include "common/rng.h"
#include "engine/template_engine.h"
#include "kernels/vq_kernels.h"

namespace vqllm::engine {
namespace {

PlanInputs
inputs()
{
    PlanInputs in;
    in.spec = &gpusim::rtx4090();
    return in;
}

TEST(TemplateEngine, GcCachesNothingScGrabsEverything)
{
    AttnShape shape{1, 32, 1024, 128};
    auto gc = planAttentionKernel(shape, vq::cq2(), OptLevel::GC,
                                  inputs());
    EXPECT_EQ(gc.cache_plan.n_shared, 0u);
    EXPECT_EQ(gc.resident_books, 0u);

    auto sc = planAttentionKernel(shape, vq::cq2(), OptLevel::SC,
                                  inputs());
    // SC keeps a whole phase's worth of books resident: 32 x 2 KiB.
    EXPECT_EQ(sc.resident_books, 32u);
    EXPECT_EQ(sc.cache_plan.smemBytes(), 32u * 2048);
    EXPECT_GT(sc.block.smem_bytes, gc.block.smem_bytes);
}

TEST(TemplateEngine, ScDropsOccupancyO1Restores)
{
    // The central Sec. V claim: greedy shared usage reduces blocks/SM;
    // the adaptive plan does not.
    AttnShape shape{1, 32, 1024, 128};
    const auto &spec = gpusim::rtx4090();
    auto base_block = baseBlockResources(OpKind::AttentionDecode, true);
    // Occupancy of the un-cached consumer (plus staging):
    auto sc = planAttentionKernel(shape, vq::cq2(), OptLevel::SC,
                                  inputs());
    auto o1 = planAttentionKernel(shape, vq::cq2(), OptLevel::O1,
                                  inputs());
    auto occ_base = gpusim::computeOccupancy(spec, base_block);
    auto occ_sc = gpusim::computeOccupancy(spec, sc.block);
    auto occ_o1 = gpusim::computeOccupancy(spec, o1.block);
    EXPECT_LT(occ_sc.blocks_per_sm, occ_base.blocks_per_sm);
    EXPECT_GE(occ_o1.blocks_per_sm, occ_sc.blocks_per_sm);
    // O1's cache must not reduce occupancy below the staged consumer's.
    gpusim::BlockResources consumer = base_block;
    consumer.smem_bytes += 128 * 4 * 2 * 2; // staging for vec 4
    auto occ_consumer = gpusim::computeOccupancy(spec, consumer);
    EXPECT_EQ(occ_o1.blocks_per_sm, occ_consumer.blocks_per_sm);
}

TEST(TemplateEngine, O2AddsRegisterTier)
{
    AttnShape shape{1, 32, 1024, 128};
    auto o1 = planAttentionKernel(shape, vq::cq2(), OptLevel::O1,
                                  inputs());
    auto o2 = planAttentionKernel(shape, vq::cq2(), OptLevel::O2,
                                  inputs());
    EXPECT_EQ(o1.cache_plan.n_reg, 0u);
    EXPECT_GT(o2.cache_plan.n_reg, 0u);
    EXPECT_GT(o2.block.regs_per_thread, o1.block.regs_per_thread);
}

TEST(TemplateEngine, O3SwitchesToCodebookCentricGrid)
{
    AttnShape shape{1, 32, 1024, 128};
    auto o2 = planAttentionKernel(shape, vq::cq2(), OptLevel::O2,
                                  inputs());
    auto o3 = planAttentionKernel(shape, vq::cq2(), OptLevel::O3,
                                  inputs());
    // Baseline: B*H*token-blocks = 32*4 = 128 blocks.
    EXPECT_EQ(o2.grid_blocks, 128u);
    // Codebook-centric: B*H*split blocks, split > 1.
    EXPECT_GT(o3.dataflow.split, 1u);
    EXPECT_EQ(o3.grid_blocks, 32u * o3.dataflow.split);
    // Codebook traffic shrinks accordingly.
    EXPECT_LT(o3.dataflow.codebook_bytes, o2.dataflow.codebook_bytes);
    // Fewer switches per block once blocks own their codebooks.
    EXPECT_LT(o3.switches_per_block, o2.switches_per_block);
}

TEST(TemplateEngine, O4RemovesStagingForRegisterFusion)
{
    AttnShape shape{1, 32, 1024, 128};
    auto o3 = planAttentionKernel(shape, vq::cq2(), OptLevel::O3,
                                  inputs());
    auto o4 = planAttentionKernel(shape, vq::cq2(), OptLevel::O4,
                                  inputs());
    EXPECT_EQ(o3.fusion.level, FusionLevel::Shared);
    EXPECT_EQ(o4.fusion.level, FusionLevel::Register);
    EXPECT_EQ(o4.fusion.num_shuffles, 3); // CQ-2 vec 4, layout 1
    // Register fusion frees the staging shared memory.
    EXPECT_LT(o4.block.smem_bytes - o4.cache_plan.smemBytes(),
              o3.block.smem_bytes - o3.cache_plan.smemBytes());
}

TEST(TemplateEngine, KCacheFusionAlwaysLayoutMatched)
{
    AttnShape shape{1, 32, 1024, 128};
    auto plan = planAttentionKernel(shape, vq::cq2(), OptLevel::O4,
                                    inputs());
    EXPECT_TRUE(plan.fusion_k.layout_matches);
    EXPECT_EQ(plan.fusion_k.num_shuffles, 0);
}

TEST(TemplateEngine, GemvQuipAvoidsRegisterFusion)
{
    // QuiP# vec 8 on GeMV needs 7 > 5 shuffles: adaptive plan stays at
    // shared fusion (Sec. VII-C).
    GemmShape shape{1, 4096, 4096};
    auto plan = planWeightKernel(OpKind::GeMV, shape, vq::quip4(),
                                 OptLevel::O4, inputs());
    EXPECT_EQ(plan.fusion.level, FusionLevel::Shared);
    // While GeMM fuses in registers with 3 shuffles.
    GemmShape mm{4096, 4096, 4096};
    auto gemm = planWeightKernel(OpKind::GeMM, mm, vq::quip4(),
                                 OptLevel::O4, inputs());
    EXPECT_EQ(gemm.fusion.level, FusionLevel::Register);
    EXPECT_EQ(gemm.fusion.num_shuffles, 3);
}

TEST(TemplateEngine, BiggerModelScalesGrid)
{
    // Llama-65B GeMV (n=k=8192) launches ~4x the blocks of 7B
    // (n=k=4096): the paper's scalability argument (Sec. VII-B).
    auto p7 = planWeightKernel(OpKind::GeMV, {1, 4096, 4096},
                               vq::gptvq2(), OptLevel::O4, inputs());
    auto p65 = planWeightKernel(OpKind::GeMV, {1, 8192, 8192},
                                vq::gptvq2(), OptLevel::O4, inputs());
    EXPECT_GE(p65.grid_blocks, 2 * p7.grid_blocks);
}

TEST(TemplateEngine, PlansAreLaunchable)
{
    // Property: every plan in the (config x op x level) space fits the
    // hardware (non-zero occupancy).
    PlanInputs in = inputs();
    for (const auto &cfg : vq::paperConfigs()) {
        bool kv = cfg.scope == vq::CodebookScope::PerChannelGroup;
        for (OptLevel level : kAllOptLevels) {
            KernelPlan plan;
            if (kv) {
                plan = planAttentionKernel({1, 32, 1024, 128}, cfg, level,
                                           in);
            } else {
                plan = planWeightKernel(OpKind::GeMV, {1, 4096, 4096},
                                        cfg, level, in);
            }
            auto occ = gpusim::computeOccupancy(*in.spec, plan.block);
            EXPECT_GT(occ.blocks_per_sm, 0)
                << cfg.name << " @ " << optLevelName(level);
            EXPECT_GT(plan.grid_blocks, 0u);
        }
    }
}

TEST(TemplateEngine, SummaryMentionsKeyDecisions)
{
    auto plan = planAttentionKernel({1, 32, 1024, 128}, vq::cq2(),
                                    OptLevel::O4, inputs());
    std::string s = plan.summary();
    EXPECT_NE(s.find("CQ-2"), std::string::npos);
    EXPECT_NE(s.find("O4"), std::string::npos);
    EXPECT_NE(s.find("register"), std::string::npos);
    EXPECT_NE(s.find("split"), std::string::npos);
}

namespace ref {

std::size_t
stagingBytes(const gpusim::BlockResources &base, const vq::VQConfig &config)
{
    return static_cast<std::size_t>(base.threads) * config.vector_size *
           2;
}

cache::CacheTiers
policyForLevel(OptLevel level)
{
    switch (level) {
      case OptLevel::GC:
        return cache::CacheTiers::None;
      case OptLevel::SC:
        return cache::CacheTiers::GreedyShared;
      case OptLevel::O1:
        return cache::CacheTiers::Shared;
      case OptLevel::O2:
      case OptLevel::O3:
      case OptLevel::O4:
        break;
    }
    return cache::CacheTiers::SharedAndRegisters;
}

void
finalizeBlock(KernelPlan &plan, const gpusim::BlockResources &base,
              std::size_t staging)
{
    plan.block = base;
    plan.block.smem_bytes += staging + plan.cache_plan.smemBytes();
    plan.block.regs_per_thread += plan.cache_plan.regsPerThread();
}

KernelPlan
planWeightKernel(OpKind kind, const GemmShape &shape,
                 const vq::VQConfig &config, OptLevel level,
                 const PlanInputs &in)
{
    KernelPlan plan;
    plan.kind = kind;
    plan.config = config;
    plan.level = level;
    plan.gemm = shape;
    plan.uses_tensor_cores = (kind == OpKind::GeMM);

    plan.dataflow = planWeightDataflow(shape, config, kind);
    if (level < OptLevel::O3) {
        plan.dataflow.split = 1;
        plan.dataflow.split_factor_raw = 1.0;
        plan.dataflow.codebook_bytes =
            plan.dataflow.baseline_codebook_bytes;
        plan.dataflow.reduce_bytes = 0;
        plan.dataflow.compute_duplication = 1.0;
    }

    if (level >= OptLevel::O4) {
        plan.fusion = planFusion(config, kind, in.spec->warp_size,
                                 in.shuffle_threshold);
    } else {
        plan.fusion.level = FusionLevel::Shared;
        plan.fusion.compute_layout = computeLayout(kind);
        plan.fusion.num_shuffles = 0;
    }

    std::uint64_t tiles_k = ceilDiv(shape.k, vq::kGptvqTileRows);
    std::uint64_t tiles_n = ceilDiv(shape.n, vq::kGptvqTileCols);
    std::uint64_t traversal_books = 1;
    switch (config.scope) {
      case vq::CodebookScope::PerTensor:
        plan.total_books = config.residuals;
        traversal_books = config.residuals;
        break;
      case vq::CodebookScope::PerTile:
        plan.total_books = tiles_k * tiles_n;
        traversal_books = tiles_k;
        break;
      case vq::CodebookScope::PerChannelGroup:
        plan.total_books = shape.k / config.vector_size;
        traversal_books = plan.total_books;
        break;
    }
    if (level >= OptLevel::O3)
        traversal_books = std::max<std::uint64_t>(
            1, traversal_books / plan.dataflow.split);
    plan.switches_per_block = traversal_books;
    plan.resident_books = level == OptLevel::GC ? 0
                          : level == OptLevel::SC ? traversal_books
                                                  : 1;

    gpusim::BlockResources base = baseBlockResources(kind, true);
    std::size_t staging = plan.fusion.level == FusionLevel::Shared
                              ? stagingBytes(base, config)
                              : 0;
    gpusim::BlockResources consumer = base;
    consumer.smem_bytes += staging;

    std::size_t working_entries =
        config.storedEntries() * std::max<std::uint64_t>(
                                     plan.resident_books, 1);
    plan.cache_plan = cache::planCache(
        *in.spec, consumer, working_entries, config.entryBytes(),
        in.histogram, policyForLevel(level));
    if (level == OptLevel::GC) {
        plan.cache_plan.total_entries = config.storedEntries();
        plan.cache_plan.n_reg = 0;
        plan.cache_plan.n_shared = 0;
    }

    finalizeBlock(plan, base, staging);

    std::uint64_t blocks_n =
        ceilDiv(shape.n, BaselineTiling::weight_block_cols);
    std::uint64_t blocks_m =
        kind == OpKind::GeMM
            ? ceilDiv(shape.m, BaselineTiling::gemm_block_rows)
            : 1;
    std::uint64_t split_k =
        kind == OpKind::GeMV ? BaselineTiling::gemv_split_k : 1;
    plan.grid_blocks = blocks_n * blocks_m * split_k *
                       plan.dataflow.split;
    return plan;
}

KernelPlan
planAttentionKernel(const AttnShape &shape, const vq::VQConfig &config,
                    OptLevel level, const PlanInputs &in)
{
    KernelPlan plan;
    plan.kind = OpKind::AttentionDecode;
    plan.config = config;
    plan.level = level;
    plan.attn = shape;
    plan.uses_tensor_cores = false;

    plan.dataflow = planAttentionDataflow(shape, config);
    if (level < OptLevel::O3) {
        plan.dataflow.split = 1;
        plan.dataflow.split_factor_raw = 1.0;
        plan.dataflow.codebook_bytes =
            plan.dataflow.baseline_codebook_bytes;
        plan.dataflow.reduce_bytes = 0;
    }

    if (level >= OptLevel::O4) {
        plan.fusion = planFusion(config, OpKind::AttentionDecode,
                                 in.spec->warp_size, in.shuffle_threshold);
    } else {
        plan.fusion.level = FusionLevel::Shared;
        plan.fusion.compute_layout = computeLayout(
            OpKind::AttentionDecode);
        plan.fusion.num_shuffles = 0;
    }
    plan.fusion_k = planFusion(config, OpKind::AttentionDecode,
                               in.spec->warp_size, in.shuffle_threshold,
                               /*layout_matches=*/true);

    std::uint64_t groups = std::max<std::uint64_t>(
        shape.head_dim / config.vector_size, 1);
    plan.total_books = shape.kvHeads() * groups * 2;
    std::uint64_t traversal_books = groups * 2;
    if (level >= OptLevel::O3)
        traversal_books = std::max<std::uint64_t>(
            2, 2 * groups / plan.dataflow.split);
    plan.switches_per_block = traversal_books;
    plan.resident_books = level == OptLevel::GC ? 0
                          : level == OptLevel::SC
                              ? (level >= OptLevel::O3
                                     ? traversal_books / 2
                                     : groups)
                              : 1;

    gpusim::BlockResources base =
        baseBlockResources(OpKind::AttentionDecode, true);
    std::size_t staging = plan.fusion.level == FusionLevel::Shared
                              ? stagingBytes(base, config)
                              : 0;
    gpusim::BlockResources consumer = base;
    consumer.smem_bytes += staging;

    std::size_t working_entries =
        config.storedEntries() * std::max<std::uint64_t>(
                                     plan.resident_books, 1);
    plan.cache_plan = cache::planCache(
        *in.spec, consumer, working_entries, config.entryBytes(),
        in.histogram, policyForLevel(level));
    if (level == OptLevel::GC) {
        plan.cache_plan.total_entries = config.storedEntries();
        plan.cache_plan.n_reg = 0;
        plan.cache_plan.n_shared = 0;
    }

    finalizeBlock(plan, base, staging);

    std::uint64_t bh = static_cast<std::uint64_t>(shape.batch) *
                       shape.heads;
    if (level >= OptLevel::O3) {
        plan.grid_blocks = bh * plan.dataflow.split;
    } else {
        plan.grid_blocks =
            bh * ceilDiv(shape.seq_len, BaselineTiling::attn_block_tokens);
    }
    return plan;
}

} // namespace ref

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameFusion(const FusionPlan &a, const FusionPlan &b,
                 const std::string &what)
{
    EXPECT_EQ(a.level, b.level) << what;
    EXPECT_EQ(a.compute_layout, b.compute_layout) << what;
    EXPECT_EQ(a.num_shuffles, b.num_shuffles) << what;
    EXPECT_EQ(a.mapping.mini_warp_size, b.mapping.mini_warp_size) << what;
    EXPECT_EQ(a.mapping.lane_map, b.mapping.lane_map) << what;
    EXPECT_EQ(a.mapping.shuffle_offsets, b.mapping.shuffle_offsets)
        << what;
    EXPECT_EQ(a.layout_matches, b.layout_matches) << what;
}

void
expectSamePlan(const KernelPlan &a, const KernelPlan &b,
               const std::string &what)
{
    EXPECT_EQ(a.kind, b.kind) << what;
    EXPECT_EQ(a.config.name, b.config.name) << what;
    EXPECT_EQ(a.level, b.level) << what;
    EXPECT_EQ(a.gemm.m, b.gemm.m) << what;
    EXPECT_EQ(a.gemm.n, b.gemm.n) << what;
    EXPECT_EQ(a.gemm.k, b.gemm.k) << what;
    EXPECT_EQ(a.attn.batch, b.attn.batch) << what;
    EXPECT_EQ(a.attn.heads, b.attn.heads) << what;
    EXPECT_EQ(a.attn.seq_len, b.attn.seq_len) << what;
    EXPECT_EQ(a.attn.head_dim, b.attn.head_dim) << what;
    EXPECT_EQ(a.attn.kv_heads, b.attn.kv_heads) << what;
    EXPECT_EQ(a.cache_plan.n_reg, b.cache_plan.n_reg) << what;
    EXPECT_EQ(a.cache_plan.n_shared, b.cache_plan.n_shared) << what;
    EXPECT_EQ(a.cache_plan.total_entries, b.cache_plan.total_entries)
        << what;
    EXPECT_EQ(a.cache_plan.entry_bytes, b.cache_plan.entry_bytes) << what;
    const DataflowPlan &x = a.dataflow, &y = b.dataflow;
    EXPECT_EQ(x.switch_axes, y.switch_axes) << what;
    EXPECT_EQ(x.conflict_axes, y.conflict_axes) << what;
    EXPECT_EQ(bits(x.split_factor_raw), bits(y.split_factor_raw)) << what;
    EXPECT_EQ(x.split, y.split) << what;
    EXPECT_EQ(x.max_split, y.max_split) << what;
    EXPECT_EQ(x.baseline_codebook_bytes, y.baseline_codebook_bytes)
        << what;
    EXPECT_EQ(x.codebook_bytes, y.codebook_bytes) << what;
    EXPECT_EQ(x.reduce_bytes, y.reduce_bytes) << what;
    EXPECT_EQ(x.output_bytes, y.output_bytes) << what;
    EXPECT_EQ(bits(x.compute_duplication), bits(y.compute_duplication))
        << what;
    expectSameFusion(a.fusion, b.fusion, what + " fusion");
    expectSameFusion(a.fusion_k, b.fusion_k, what + " fusion_k");
    EXPECT_EQ(a.block.threads, b.block.threads) << what;
    EXPECT_EQ(a.block.smem_bytes, b.block.smem_bytes) << what;
    EXPECT_EQ(a.block.regs_per_thread, b.block.regs_per_thread) << what;
    EXPECT_EQ(a.grid_blocks, b.grid_blocks) << what;
    EXPECT_EQ(a.uses_tensor_cores, b.uses_tensor_cores) << what;
    EXPECT_EQ(a.total_books, b.total_books) << what;
    EXPECT_EQ(a.resident_books, b.resident_books) << what;
    EXPECT_EQ(a.switches_per_block, b.switches_per_block) << what;
    EXPECT_EQ(a.summary(), b.summary()) << what;
}

void
expectSameEstimate(const kernels::KernelResult &a,
                   const kernels::KernelResult &b, const std::string &what)
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

/** Seeded skewed counts over a config's stored entries, scattered so
 *  the frequency order is not the identity. */
vq::AccessHistogram
skewedHistogram(const vq::VQConfig &cfg, Rng &rng)
{
    std::vector<std::uint64_t> counts(cfg.storedEntries());
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] = 100000 / (i + 1) + rng.uniformInt(5);
    for (std::size_t i = counts.size(); i > 1; --i)
        std::swap(counts[i - 1], counts[rng.uniformInt(i)]);
    return vq::AccessHistogram(std::move(counts));
}

const vq::VQConfig &
configNamed(const std::string &name)
{
    for (const auto &cfg : vq::paperConfigs())
        if (cfg.name == name)
            return cfg;
    ADD_FAILURE() << "no config " << name;
    return vq::paperConfigs()[0];
}

TEST(TemplateEngine, OneLadderMatchesPerKindPlannersBitForBit)
{
    const gpusim::GpuSpec &spec = gpusim::rtx4090();
    Rng rng(2929);
    std::map<std::string, vq::AccessHistogram> hists;
    for (const auto &cfg : vq::paperConfigs())
        hists.emplace(cfg.name, skewedHistogram(cfg, rng));

    std::size_t plans = 0;
    auto check = [&](const KernelPlan &plan, const KernelPlan &want,
                     const vq::AccessHistogram *hist) {
        const std::string what =
            plan.config.name + " " + opKindName(plan.kind) + " " +
            optLevelName(plan.level) + (hist ? " hist" : " uniform") +
            " #" + std::to_string(plans++);
        expectSamePlan(plan, want, what);
        const bool attn = plan.kind == OpKind::AttentionDecode;
        expectSameEstimate(
            attn ? kernels::estimateVqAttentionKernel(spec, plan, hist)
                 : kernels::estimateVqWeightKernel(spec, plan, hist),
            attn ? kernels::estimateVqAttentionKernel(spec, want, hist)
                 : kernels::estimateVqWeightKernel(spec, want, hist),
            what);
        EXPECT_EQ(codegen::kernelSymbolName(plan),
                  codegen::kernelSymbolName(want))
            << what;
        EXPECT_EQ(codegen::emitCudaKernel(plan),
                  codegen::emitCudaKernel(want))
            << what;
    };

    // The Fig. 13 matrix (Llama-7B and -65B), plus GQA decode attention.
    struct Model
    {
        std::size_t hidden, heads;
    };
    for (const Model &m : {Model{4096, 32}, Model{8192, 64}}) {
        for (OptLevel level : kAllOptLevels) {
            for (bool with_hist : {false, true}) {
                for (const char *name : {"QuiP#-4", "AQLM-3", "GPTVQ-2"}) {
                    const auto &cfg = configNamed(name);
                    PlanInputs in;
                    in.spec = &spec;
                    in.histogram = with_hist ? &hists.at(cfg.name) : nullptr;
                    for (std::size_t rows : {4096, 1, 16}) {
                        const GemmShape shape{rows, m.hidden, m.hidden};
                        const OpKind kind =
                            rows == 4096 ? OpKind::GeMM : OpKind::GeMV;
                        check(planWeightKernel(kind, shape, cfg, level, in),
                              ref::planWeightKernel(kind, shape, cfg, level,
                                                    in),
                              in.histogram);
                    }
                }
                for (const char *name : {"CQ-2", "CQ-4"}) {
                    const auto &cfg = configNamed(name);
                    PlanInputs in;
                    in.spec = &spec;
                    in.histogram = with_hist ? &hists.at(cfg.name) : nullptr;
                    std::vector<AttnShape> shapes;
                    for (std::size_t batch : {1, 8})
                        for (std::size_t seq : {1024, 4096, 16384})
                            shapes.push_back({batch, m.heads, seq, 128});
                    shapes.push_back({8, m.heads, 4096, 128, 8}); // GQA
                    for (const AttnShape &shape : shapes)
                        check(planAttentionKernel(shape, cfg, level, in),
                              ref::planAttentionKernel(shape, cfg, level,
                                                       in),
                              in.histogram);
                }
            }
        }
    }
    EXPECT_EQ(plans, 2u * 6 * 2 * (9 + 14));
}

} // namespace
} // namespace vqllm::engine
