/**
 * @file
 * Tests for the codebook cache: placement heuristics (slack-bounded
 * boundaries), tier resolution, functional access, and the
 * Load/Access/Switch API semantics (paper Sec. V).
 */
#include <gtest/gtest.h>

#include "cache/codebook_cache.h"
#include "tensor/datagen.h"

namespace vqllm::cache {
namespace {

using gpusim::BlockResources;
using gpusim::GpuSpec;
using gpusim::rtx4090;

vq::Codebook
randomCodebook(std::size_t entries, unsigned vec, std::uint64_t seed = 3)
{
    Rng rng(seed);
    Tensor<float> e({entries, vec});
    fillNormal(e, rng);
    return vq::Codebook::plain(e);
}

TEST(CachePlan, TierBoundaries)
{
    CachePlan plan;
    plan.n_reg = 4;
    plan.n_shared = 64;
    plan.total_entries = 256;
    plan.entry_bytes = 8;
    EXPECT_EQ(plan.tierOf(0), Tier::Register);
    EXPECT_EQ(plan.tierOf(3), Tier::Register);
    EXPECT_EQ(plan.tierOf(4), Tier::Shared);
    EXPECT_EQ(plan.tierOf(63), Tier::Shared);
    EXPECT_EQ(plan.tierOf(64), Tier::Global);
    EXPECT_EQ(plan.tierOf(255), Tier::Global);
    EXPECT_EQ(plan.smemBytes(), 60u * 8);
    EXPECT_EQ(plan.regsPerThread(), 8); // 4 entries x 8 B / 4 B per reg
    EXPECT_EQ(plan.sharedEntries(), 60u);
}

TEST(PlanCache, GcPolicyCachesNothing)
{
    auto plan = planCache(rtx4090(), {128, 4096, 48}, 256, 8, nullptr,
                          CacheTiers::None);
    EXPECT_EQ(plan.n_reg, 0u);
    EXPECT_EQ(plan.n_shared, 0u);
    EXPECT_EQ(plan.smemBytes(), 0u);
}

TEST(PlanCache, GreedyCachesEverythingUpToHardLimit)
{
    auto plan = planCache(rtx4090(), {128, 4096, 48}, 256, 8, nullptr,
                          CacheTiers::GreedyShared);
    EXPECT_EQ(plan.n_reg, 0u);
    EXPECT_EQ(plan.n_shared, 256u);

    // A working set beyond the per-block shared limit is clamped
    // (AQLM-3's 128 KiB codebooks cannot fully reside).
    auto huge = planCache(rtx4090(), {128, 4096, 48}, 8192, 16, nullptr,
                          CacheTiers::GreedyShared);
    EXPECT_LT(huge.n_shared, 8192u);
    EXPECT_LE(huge.smemBytes() + 4096,
              rtx4090().max_smem_per_block);
}

TEST(PlanCache, AdaptivePlanNeverHurtsOccupancy)
{
    // The invariant of Sec. V-B: consuming the planned cache resources
    // must leave blocks/SM unchanged.
    const GpuSpec &spec = rtx4090();
    for (int threads : {128, 256}) {
        for (std::size_t smem : {2048u, 16384u, 40960u}) {
            BlockResources block{threads, smem, 48};
            auto base = gpusim::computeOccupancy(spec, block);
            auto plan = planCache(spec, block, 4096, 16);
            BlockResources with_cache = block;
            with_cache.smem_bytes += plan.smemBytes();
            with_cache.regs_per_thread += plan.regsPerThread();
            auto after = gpusim::computeOccupancy(spec, with_cache);
            EXPECT_EQ(after.blocks_per_sm, base.blocks_per_sm)
                << "threads=" << threads << " smem=" << smem;
        }
    }
}

TEST(PlanCache, HistogramCapsRegisterTier)
{
    // Only entries hotter than mu+3sigma deserve registers.
    std::vector<std::uint64_t> counts(256, 10);
    counts[0] = 10000;
    counts[1] = 9000; // 2 hot entries
    const vq::AccessHistogram hist(std::move(counts));
    auto plan = planCache(rtx4090(), {128, 2048, 32}, 256, 8, &hist);
    EXPECT_EQ(plan.n_reg, 2u);
    // Without a histogram the policy cap applies.
    auto plan2 = planCache(rtx4090(), {128, 2048, 32}, 256, 8, nullptr);
    EXPECT_LE(plan2.n_reg, kMaxRegEntries);
    EXPECT_GT(plan2.n_reg, 0u);
}

TEST(PlanCache, O1PolicyUsesNoRegisters)
{
    auto plan = planCache(rtx4090(), {128, 2048, 32}, 256, 8, nullptr,
                          CacheTiers::Shared);
    EXPECT_EQ(plan.n_reg, 0u);
    EXPECT_GT(plan.n_shared, 0u);
}

TEST(CodebookCache, AccessDecodesAndCountsTiers)
{
    auto cb = randomCodebook(64, 4);
    CachePlan plan;
    plan.n_reg = 2;
    plan.n_shared = 32;
    plan.total_entries = 64;
    plan.entry_bytes = 8;
    gpusim::KernelCounters counters;
    auto cache = CodebookCache::load(cb, plan, 4, &counters);

    // Load traffic: shared tier 30 entries x 8 B; register tier 2 x 8 x 4
    // warps of broadcast loads.
    EXPECT_EQ(counters.global_to_shared_bytes, 30u * 8);
    EXPECT_EQ(counters.dram_read_bytes, 30u * 8 + 2u * 8 * 4);

    float out[4], expect[4];
    EXPECT_EQ(cache.access(1, out), Tier::Register);
    cb.decode(1, expect);
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(out[d], expect[d]);
    EXPECT_EQ(cache.access(17, out), Tier::Shared);
    EXPECT_EQ(cache.access(50, out), Tier::Global);
    EXPECT_EQ(cache.stats().reg_hits, 1u);
    EXPECT_EQ(cache.stats().shared_hits, 1u);
    EXPECT_EQ(cache.stats().global_hits, 1u);
    EXPECT_EQ(cache.stats().total(), 3u);
}

TEST(CodebookCache, SwitchRecountsLoadTraffic)
{
    auto cb1 = randomCodebook(64, 4, 1);
    auto cb2 = randomCodebook(64, 4, 2);
    CachePlan plan;
    plan.n_reg = 0;
    plan.n_shared = 64;
    plan.total_entries = 64;
    plan.entry_bytes = 8;
    gpusim::KernelCounters counters;
    auto cache = CodebookCache::load(cb1, plan, 4, &counters);
    auto after_load = counters.global_to_shared_bytes;
    cache.switchTo(cb2, &counters);
    EXPECT_EQ(counters.global_to_shared_bytes, 2 * after_load);

    // Accesses now decode from the new codebook.
    float out[4], expect[4];
    cache.access(5, out);
    cb2.decode(5, expect);
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(out[d], expect[d]);
}

TEST(CodebookCache, LatticeIndicesResolveByBaseEntry)
{
    Rng rng(9);
    Tensor<float> base({16, 4});
    fillUniform(base, rng, 0.5, 2.0);
    auto cb = vq::Codebook::lattice(base);
    CachePlan plan;
    plan.n_reg = 4;
    plan.n_shared = 16;
    plan.total_entries = 16;
    plan.entry_bytes = 8;
    auto cache = CodebookCache::load(cb, plan, 4);
    float out[4];
    // Logical index with base 2 (register tier) and a sign mask.
    std::uint32_t logical = 2u | (0b1010u << 4);
    EXPECT_EQ(cache.access(logical, out), Tier::Register);
    // Logical index with base 9 (shared tier).
    EXPECT_EQ(cache.access(9, out), Tier::Shared);
}

TEST(CodebookCache, SharedOffsetsAreContiguous)
{
    auto cb = randomCodebook(64, 4);
    CachePlan plan;
    plan.n_reg = 8;
    plan.n_shared = 40;
    plan.total_entries = 64;
    plan.entry_bytes = 8;
    auto cache = CodebookCache::load(cb, plan, 4);
    EXPECT_EQ(cache.sharedOffsetOf(8), 0u);
    EXPECT_EQ(cache.sharedOffsetOf(9), 8u);
    EXPECT_EQ(cache.sharedOffsetOf(39), 31u * 8);
}

TEST(CodebookCacheDeath, LoadValidatesPlan)
{
    auto cb = randomCodebook(64, 4);
    CachePlan plan;
    plan.total_entries = 32; // wrong
    plan.entry_bytes = 8;
    EXPECT_DEATH(CodebookCache::load(cb, plan, 4), "mismatch");
}

} // namespace
} // namespace vqllm::cache
