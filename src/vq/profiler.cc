#include "vq/profiler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace vqllm::vq {

std::uint64_t
AccessHistogram::total() const
{
    return std::accumulate(counts.begin(), counts.end(),
                           std::uint64_t{0});
}

double
AccessHistogram::mean() const
{
    if (counts.empty())
        return 0;
    return static_cast<double>(total()) /
           static_cast<double>(counts.size());
}

double
AccessHistogram::stddev() const
{
    if (counts.empty())
        return 0;
    double mu = mean();
    double acc = 0;
    for (auto c : counts) {
        double d = static_cast<double>(c) - mu;
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(counts.size()));
}

std::size_t
AccessHistogram::entriesAbove(double k_sigma) const
{
    double threshold = mean() + k_sigma * stddev();
    std::size_t n = 0;
    for (auto c : counts)
        if (static_cast<double>(c) > threshold)
            ++n;
    return n;
}

double
AccessHistogram::fractionBelowMean() const
{
    if (counts.empty())
        return 0;
    double mu = mean();
    std::size_t n = 0;
    for (auto c : counts)
        if (static_cast<double>(c) < mu)
            ++n;
    return static_cast<double>(n) / static_cast<double>(counts.size());
}

std::vector<std::uint32_t>
AccessHistogram::frequencyOrder() const
{
    std::vector<std::uint32_t> order(counts.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return counts[a] > counts[b];
                     });
    return order;
}

ProfileResult
profileAccesses(const QuantizedTensor &qt, std::size_t rows_per_block)
{
    ProfileResult res;
    res.histograms.resize(qt.codebooks.size());
    for (std::size_t c = 0; c < qt.codebooks.size(); ++c)
        res.histograms[c].counts.assign(qt.codebooks[c].storedEntries(),
                                        0);

    if (rows_per_block > 0) {
        res.block_histograms.resize(ceilDiv(qt.rows, rows_per_block));
        for (auto &h : res.block_histograms)
            h.counts.assign(qt.codebooks.empty()
                                ? 0
                                : qt.codebooks[0].storedEntries(),
                            0);
    }

    for (std::size_t r = 0; r < qt.rows; ++r) {
        for (std::size_t s = 0; s < qt.subspaces(); ++s) {
            std::size_t unit = qt.codebookUnit(r, s);
            for (unsigned stage = 0; stage < qt.config.residuals;
                 ++stage) {
                std::size_t cb_id = unit * qt.config.residuals + stage;
                const Codebook &cb = qt.codebooks[cb_id];
                std::uint32_t logical = qt.indices.get(
                    qt.indexPosition(r, s, stage));
                std::uint32_t stored = cb.storedIndexOf(logical);
                ++res.histograms[cb_id].counts[stored];
                if (cb_id == 0 && rows_per_block > 0)
                    ++res.block_histograms[r / rows_per_block]
                          .counts[stored];
            }
        }
    }
    return res;
}

ProfileResult
reorderByFrequency(QuantizedTensor &qt)
{
    ProfileResult profile = profileAccesses(qt);

    // Reorder every codebook and remember the old->new index maps.
    std::vector<std::vector<std::uint32_t>> inverse(qt.codebooks.size());
    for (std::size_t c = 0; c < qt.codebooks.size(); ++c) {
        auto perm = profile.histograms[c].frequencyOrder();
        inverse[c] = qt.codebooks[c].reorder(perm);
    }

    // Rewrite the packed index stream with the new entry numbering.
    BitStream rewritten(qt.indices.bitsPerValue());
    for (std::size_t r = 0; r < qt.rows; ++r) {
        for (std::size_t s = 0; s < qt.subspaces(); ++s) {
            std::size_t unit = qt.codebookUnit(r, s);
            for (unsigned stage = 0; stage < qt.config.residuals;
                 ++stage) {
                std::size_t cb_id = unit * qt.config.residuals + stage;
                const Codebook &cb = qt.codebooks[cb_id];
                std::uint32_t logical = qt.indices.get(
                    qt.indexPosition(r, s, stage));
                std::uint32_t remapped;
                if (cb.isLattice()) {
                    unsigned base_bits = ceilLog2(cb.storedEntries());
                    std::uint32_t base = logical &
                                         ((1u << base_bits) - 1);
                    std::uint32_t signs = logical >> base_bits;
                    remapped = inverse[cb_id][base] |
                               (signs << base_bits);
                } else {
                    remapped = inverse[cb_id][logical];
                }
                rewritten.push(remapped);
            }
        }
    }
    qt.indices = std::move(rewritten);
    return profile;
}

AccessHistogram
syntheticZipfHistogram(std::size_t entries, double alpha)
{
    AccessHistogram hist;
    auto weights = powerLawWeights(entries, alpha);
    hist.counts.resize(entries);
    for (std::size_t i = 0; i < entries; ++i)
        hist.counts[i] =
            static_cast<std::uint64_t>(weights[i] * 100000.0) + 1;
    return hist;
}

} // namespace vqllm::vq
