/**
 * @file
 * Tests for the roofline cost model: qualitative properties the paper's
 * analysis depends on (bandwidth-boundedness, occupancy derating, small-
 * grid latency sensitivity, reduction overhead).
 */
#include <gtest/gtest.h>

#include "gpusim/cost_model.h"

namespace vqllm::gpusim {
namespace {

LaunchConfig
bigGrid()
{
    LaunchConfig launch;
    launch.grid_blocks = 4096;
    launch.block = {256, 16 * 1024, 64};
    return launch;
}

TEST(CostModel, MoreDramBytesMoreLatency)
{
    KernelCounters a, b;
    a.dram_read_bytes = 16ull << 20;
    b.dram_read_bytes = 64ull << 20;
    auto la = estimateLatency(rtx4090(), bigGrid(), a);
    auto lb = estimateLatency(rtx4090(), bigGrid(), b);
    EXPECT_GT(lb.total_us, la.total_us);
    // 4x the bytes should be ~4x the dram time.
    EXPECT_NEAR(lb.dram_us / la.dram_us, 4.0, 0.2);
}

TEST(CostModel, MemoryBoundKernelNearsPeakBandwidth)
{
    // A 16 MiB streaming read on a 4090 (1008 GB/s, 82% efficient)
    // should take roughly 20 us.
    KernelCounters c;
    c.dram_read_bytes = 16ull << 20;
    auto lat = estimateLatency(rtx4090(), bigGrid(), c);
    EXPECT_GT(lat.dram_us, 15.0);
    EXPECT_LT(lat.dram_us, 30.0);
}

TEST(CostModel, LowOccupancyDeratesBandwidth)
{
    KernelCounters c;
    c.dram_read_bytes = 64ull << 20;

    LaunchConfig high = bigGrid();
    LaunchConfig low = bigGrid();
    low.block.threads = 128;          // 4 warps
    low.block.smem_bytes = 90 * 1024; // 1 block/SM -> very low occupancy
    auto lh = estimateLatency(rtx4090(), high, c);
    auto ll = estimateLatency(rtx4090(), low, c);
    EXPECT_GT(ll.dram_us, lh.dram_us * 1.2);
}

TEST(CostModel, SmallGridIsLatencyBound)
{
    KernelCounters c;
    c.dram_read_bytes = 4ull << 20;

    LaunchConfig tiny = bigGrid();
    tiny.grid_blocks = 8; // only 8 of 128 SMs busy
    LaunchConfig big = bigGrid();
    big.grid_blocks = 4096;
    auto lt = estimateLatency(rtx4090(), tiny, c);
    auto lb = estimateLatency(rtx4090(), big, c);
    EXPECT_GT(lt.total_us, lb.total_us);
}

TEST(CostModel, BankConflictsSerializeSmem)
{
    KernelCounters clean, conflicted;
    clean.smem_ideal_transactions = 1u << 20;
    clean.smem_transactions = 1u << 20;
    conflicted.smem_ideal_transactions = 1u << 20;
    conflicted.smem_transactions = 4u << 20; // 4-way conflicts
    auto lc = estimateLatency(rtx4090(), bigGrid(), clean);
    auto lx = estimateLatency(rtx4090(), bigGrid(), conflicted);
    EXPECT_NEAR(lx.smem_us / lc.smem_us, 4.0, 0.01);
    EXPECT_DOUBLE_EQ(conflicted.conflictMultiplier(), 4.0);
}

TEST(CostModel, ReductionAddsSecondPass)
{
    KernelCounters with, without;
    without.dram_read_bytes = 8ull << 20;
    with.dram_read_bytes = 8ull << 20;
    with.reduce_bytes = 4ull << 20;
    auto lw = estimateLatency(rtx4090(), bigGrid(), with);
    auto lo = estimateLatency(rtx4090(), bigGrid(), without);
    EXPECT_GT(lw.total_us, lo.total_us);
    EXPECT_GT(lw.reduce_us, 0.0);
}

TEST(CostModel, ScalarOverheadCostsCompute)
{
    KernelCounters lean, heavy;
    lean.flops = 1ull << 30;
    heavy.flops = 1ull << 30;
    heavy.dequant_lookups = 1ull << 28;
    heavy.unpack_ops = 1ull << 28;
    auto ll = estimateLatency(rtx4090(), bigGrid(), lean);
    auto lh = estimateLatency(rtx4090(), bigGrid(), heavy);
    EXPECT_GT(lh.compute_us, ll.compute_us);
}

TEST(CostModel, TensorCoresBeatCudaCores)
{
    KernelCounters c;
    c.flops = 1ull << 34;
    LaunchConfig tc = bigGrid();
    tc.uses_tensor_cores = true;
    LaunchConfig cc = bigGrid();
    cc.uses_tensor_cores = false;
    EXPECT_LT(estimateLatency(rtx4090(), tc, c).compute_us,
              estimateLatency(rtx4090(), cc, c).compute_us);
}

TEST(CostModel, UnlaunchableBlockIsFlagged)
{
    LaunchConfig bad = bigGrid();
    bad.block.smem_bytes = 10 * 1024 * 1024;
    auto lat = estimateLatency(rtx4090(), bad, KernelCounters{});
    EXPECT_GE(lat.total_us, 1e11);
}

TEST(CostModel, A40SlowerThan4090ForSameTraffic)
{
    // The A40 has 69% of the 4090's bandwidth; a memory-bound kernel
    // slows accordingly (basis of the paper's Fig. 17 A40 point).
    KernelCounters c;
    c.dram_read_bytes = 64ull << 20;
    auto lf = estimateLatency(rtx4090(), bigGrid(), c);
    auto ls = estimateLatency(teslaA40(), bigGrid(), c);
    EXPECT_NEAR(ls.dram_us / lf.dram_us,
                rtx4090().dram_bw_gbps / teslaA40().dram_bw_gbps, 0.05);
}

} // namespace
} // namespace vqllm::gpusim
