/**
 * @file
 * Reproduces paper Fig. 9: per-block entry-hotness map.  Globally hot
 * entries appear as consistent "vertical white lines" across thread
 * blocks (different tensor parts), justifying tensor-level frequency
 * reordering instead of per-block reordering.
 */
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

int
main()
{
    std::printf("Fig. 9: entry hotness across tensor parts (thread "
                "blocks)\n\n");
    Rng rng(0xF19);
    ClusteredDataSpec spec;
    spec.num_clusters = 48;
    spec.popularity_alpha = 1.1;
    auto data = generateClustered(512, 32, spec, rng);

    vq::VQConfig cfg = vq::gptvq2();
    cfg.scope = vq::CodebookScope::PerTensor; // one shared book
    cfg.num_entries = 64;                     // keep the map readable
    vq::KMeansOptions opts;
    opts.max_iters = 8;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(data);
    auto profile = vq::profileAccesses(qt, /*rows_per_block=*/64);

    // Render: rows = blocks, cols = entries ordered by global rank;
    // '#' hot (top quartile within the block), '.' cold.
    const auto &global_order = profile.histograms[0].frequencyOrder();
    std::printf("rows = thread blocks, columns = entries in global "
                "frequency-rank order\n('#' = block-local top quartile; "
                "vertical '#' stripes on the left = global hot set)\n\n");
    for (std::size_t b = 0; b < profile.block_histograms.size(); ++b) {
        const auto &bh = profile.block_histograms[b];
        const auto &sorted = bh.descendingCounts();
        std::uint64_t q3 = sorted[sorted.size() / 4];
        std::printf("block %2zu | ", b);
        for (std::uint32_t entry : global_order)
            std::printf("%c", bh.counts()[entry] >= q3 && q3 > 0 ? '#'
                                                                 : '.');
        std::printf(" |\n");
    }

    // Consistency metric: how often the global top-8 rank in each
    // block's top quartile.
    int hits = 0, trials = 0;
    for (const auto &bh : profile.block_histograms) {
        const auto &border = bh.frequencyOrder();
        for (int rank = 0; rank < 8; ++rank) {
            auto pos = std::find(border.begin(), border.end(),
                                 global_order[rank]) -
                       border.begin();
            hits += static_cast<std::size_t>(pos) < border.size() / 4;
            ++trials;
        }
    }
    std::printf("\nglobal top-8 entries rank in a block's top quartile "
                "%s of the time\n(paper: 'many vertical white lines' -> "
                "global reordering is sound)\n",
                formatPercent(static_cast<double>(hits) / trials,
                              1)
                    .c_str());
    return 0;
}
