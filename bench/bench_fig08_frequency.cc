/**
 * @file
 * Reproduces paper Fig. 8: codebook-entry access frequencies of one
 * thread block in a VQ-GeMM kernel with VQ<8,12,2> (AQLM-3): a strongly
 * skewed histogram where over half the entries fall below the mean and
 * a handful exceed mu + 3 sigma.
 */
#include <cstdio>

#include "bench_common.h"

using namespace vqllm;
using namespace vqllm::bench;

int
main()
{
    std::printf("Fig. 8: codebook entry access frequency, AQLM-3 "
                "VQ<8,12,2> (one GeMM block's weights)\n\n");
    const auto &hist = sampleHistogram(vq::aqlm3(), /*kv=*/false);

    double mu = hist.mean();
    double sigma = hist.stddev();
    std::printf("entries: %zu, total accesses: %llu\n",
                hist.size(),
                static_cast<unsigned long long>(hist.total()));
    std::printf("mean access count mu = %.3f, sigma = %.3f\n", mu,
                sigma);
    std::printf("entries below mean: %s  (paper: over half)\n",
                formatPercent(hist.fractionBelowMean(), 1).c_str());
    std::printf("entries above mu+3sigma: %zu  (paper: 26 for this "
                "config; Tbl. V band: 15-30)\n",
                hist.entriesAbove(3.0));
    std::printf("entries above mu+0sigma: %zu\n\n",
                hist.entriesAbove(0.0));

    // Text rendering of the sorted histogram (log-binned).
    const auto &ranked = hist.descendingCounts();
    std::printf("access count by frequency rank (each bar is the mean "
                "of its rank bin):\n");
    const int bins = 16;
    std::size_t per_bin = ranked.size() / bins;
    double max_mean = 0;
    std::vector<double> bin_means(bins, 0.0);
    for (int b = 0; b < bins; ++b) {
        double acc = 0;
        for (std::size_t i = b * per_bin;
             i < (b + 1) * per_bin && i < ranked.size(); ++i)
            acc += static_cast<double>(ranked[i]);
        bin_means[b] = acc / static_cast<double>(per_bin);
        max_mean = std::max(max_mean, bin_means[b]);
    }
    for (int b = 0; b < bins; ++b) {
        int stars = max_mean > 0
                        ? static_cast<int>(bin_means[b] / max_mean * 50)
                        : 0;
        std::printf("rank %4zu-%4zu | %-50.*s | %.2f\n", b * per_bin,
                    (b + 1) * per_bin - 1, stars,
                    "**************************************************",
                    bin_means[b]);
    }
    std::printf("\nthe skew justifies hierarchical placement: "
                "register-cache the top few, shared-cache the\nmedium "
                "band, leave the cold tail in global memory.\n");
    return 0;
}
