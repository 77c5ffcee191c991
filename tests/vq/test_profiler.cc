/**
 * @file
 * Tests for access-frequency profiling and frequency-based reordering —
 * the offline phase of the codebook cache (paper Sec. V, Fig. 8/9).
 */
#include <gtest/gtest.h>

#include "tensor/datagen.h"
#include "vq/profiler.h"

namespace vqllm::vq {
namespace {

QuantizedTensor
quantizedSample(std::size_t rows = 128, std::size_t cols = 32)
{
    ClusteredDataSpec spec;
    spec.num_clusters = 24;
    spec.popularity_alpha = 1.2; // strong skew, like real weights
    Rng rng(23);
    auto data = generateClustered(rows, cols, spec, rng);
    KMeansOptions opts;
    opts.max_iters = 8;
    VQConfig cfg = cq2();
    cfg.num_entries = 64;
    return VectorQuantizer(cfg, opts).quantize(data);
}

TEST(Profiler, TotalAccessesMatchIndexCount)
{
    auto qt = quantizedSample();
    auto prof = profileAccesses(qt);
    std::uint64_t total = 0;
    for (const auto &h : prof.histograms)
        total += h.total();
    EXPECT_EQ(total, qt.rows * qt.subspaces() * qt.config.residuals);
}

TEST(Profiler, SkewedDataYieldsSkewedHistogram)
{
    // Paper Fig. 8: over half the entries are accessed less than the
    // mean on realistic data.
    auto qt = quantizedSample();
    auto prof = profileAccesses(qt);
    double below = prof.histograms[0].fractionBelowMean();
    EXPECT_GT(below, 0.5);
}

TEST(Profiler, BlockHistogramsSumToGlobal)
{
    auto qt = quantizedSample();
    auto prof = profileAccesses(qt, 32);
    ASSERT_EQ(prof.block_histograms.size(), 4u);
    std::vector<std::uint64_t> summed(prof.histograms[0].size(),
                                      0);
    for (const auto &bh : prof.block_histograms)
        for (std::size_t e = 0; e < bh.size(); ++e)
            summed[e] += bh.counts()[e];
    EXPECT_EQ(summed, prof.histograms[0].counts());
}

TEST(Profiler, HotEntriesConsistentAcrossBlocks)
{
    // Paper Fig. 9: globally hot entries are hot in most blocks, which
    // justifies tensor-level (not per-block) reordering.
    auto qt = quantizedSample(256, 32);
    auto prof = profileAccesses(qt, 64);
    auto order = prof.histograms[0].frequencyOrder();
    // Take the top-4 global entries; each must rank in the top half of
    // at least 3 of 4 blocks.
    for (int rank = 0; rank < 4; ++rank) {
        std::uint32_t entry = order[rank];
        int in_top_half = 0;
        for (const auto &bh : prof.block_histograms) {
            auto border = bh.frequencyOrder();
            auto pos = std::find(border.begin(), border.end(), entry) -
                       border.begin();
            if (static_cast<std::size_t>(pos) < border.size() / 2)
                ++in_top_half;
        }
        EXPECT_GE(in_top_half, 3) << "global rank " << rank;
    }
}

TEST(Profiler, FrequencyOrderIsDescending)
{
    auto qt = quantizedSample();
    auto prof = profileAccesses(qt);
    for (const auto &h : prof.histograms) {
        auto order = h.frequencyOrder();
        for (std::size_t i = 1; i < order.size(); ++i)
            EXPECT_GE(h.counts()[order[i - 1]], h.counts()[order[i]]);
    }
}

TEST(Profiler, StatsOnKnownHistogram)
{
    const AccessHistogram h({10, 0, 0, 2});
    EXPECT_EQ(h.total(), 12u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.fractionBelowMean(), 0.75);
    // sigma = sqrt((49+9+9+1)/4) = sqrt(17); 10 > 3+sqrt(17) -> 1 entry
    EXPECT_EQ(h.entriesAbove(1.0), 1u);
    EXPECT_EQ(h.entriesAbove(100.0), 0u);
    auto order = h.frequencyOrder();
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 3u);
}

TEST(Reorder, PreservesDequantizedValues)
{
    // Reordering entries + rewriting indices must not change the
    // reconstruction at all — it is a pure renaming.
    auto qt = quantizedSample();
    auto before = VectorQuantizer::dequantize(qt);
    reorderByFrequency(qt);
    auto after = VectorQuantizer::dequantize(qt);
    EXPECT_EQ(maxAbsDiff(before, after), 0.0);
}

TEST(Reorder, MakesIndexZeroTheHottest)
{
    auto qt = quantizedSample();
    reorderByFrequency(qt);
    auto prof = profileAccesses(qt);
    for (const auto &h : prof.histograms) {
        // After reordering, counts are non-increasing in entry index.
        for (std::size_t e = 1; e < h.size(); ++e)
            EXPECT_GE(h.counts()[e - 1], h.counts()[e]);
    }
}

TEST(Reorder, WorksForLatticeBooks)
{
    ClusteredDataSpec spec;
    Rng rng(31);
    auto data = generateClustered(64, 16, spec, rng);
    VQConfig cfg = quip4();
    cfg.lattice_base_entries = 16;
    cfg.num_entries = 16u << cfg.vector_size;
    cfg.residuals = 1;
    KMeansOptions opts;
    opts.max_iters = 6;
    auto qt = VectorQuantizer(cfg, opts).quantize(data);
    auto before = VectorQuantizer::dequantize(qt);
    reorderByFrequency(qt);
    auto after = VectorQuantizer::dequantize(qt);
    EXPECT_EQ(maxAbsDiff(before, after), 0.0);
}

} // namespace
} // namespace vqllm::vq
