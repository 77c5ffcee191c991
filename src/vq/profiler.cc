#include "vq/profiler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace vqllm::vq {

AccessHistogram::AccessHistogram(std::vector<std::uint64_t> counts)
    : counts_(std::move(counts))
{
    const std::size_t n = counts_.size();
    // Frequency order: descending count, ties by entry index — the
    // order a stable sort by count gives, from one plain sort.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked(n);
    for (std::size_t i = 0; i < n; ++i)
        ranked[i] = {counts_[i], static_cast<std::uint32_t>(i)};
    std::sort(ranked.begin(), ranked.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    order_.resize(n);
    descending_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        descending_[r] = ranked[r].first;
        order_[r] = ranked[r].second;
    }

    total_ = std::accumulate(counts_.begin(), counts_.end(),
                             std::uint64_t{0});
    if (n > 0) {
        mean_ = static_cast<double>(total_) / static_cast<double>(n);
        // Entry-index order, so the rounding never depends on the sort.
        double acc = 0;
        for (auto c : counts_) {
            double d = static_cast<double>(c) - mean_;
            acc += d * d;
        }
        stddev_ = std::sqrt(acc / static_cast<double>(n));
    }
    const std::uint64_t h =
        fnv1a(counts_.data(), n * sizeof(std::uint64_t));
    digest_ = h == 0 ? 1 : h;
}

std::size_t
AccessHistogram::entriesAbove(double k_sigma) const
{
    // Counts above the threshold form a prefix of the descending ones.
    const double threshold = mean_ + k_sigma * stddev_;
    return static_cast<std::size_t>(
        std::partition_point(descending_.begin(), descending_.end(),
                             [&](std::uint64_t c) {
                                 return static_cast<double>(c) > threshold;
                             }) -
        descending_.begin());
}

double
AccessHistogram::fractionBelowMean() const
{
    if (counts_.empty())
        return 0;
    // Counts below the mean form a suffix of the descending ones.
    auto below = descending_.end() -
                 std::partition_point(descending_.begin(),
                                      descending_.end(),
                                      [&](std::uint64_t c) {
                                          return !(static_cast<double>(c) <
                                                   mean_);
                                      });
    return static_cast<double>(below) /
           static_cast<double>(counts_.size());
}

ProfileResult
profileAccesses(const QuantizedTensor &qt, std::size_t rows_per_block)
{
    std::vector<std::vector<std::uint64_t>> counts(qt.codebooks.size());
    for (std::size_t c = 0; c < qt.codebooks.size(); ++c)
        counts[c].assign(qt.codebooks[c].storedEntries(), 0);

    std::vector<std::vector<std::uint64_t>> block_counts;
    if (rows_per_block > 0)
        block_counts.assign(ceilDiv(qt.rows, rows_per_block),
                            std::vector<std::uint64_t>(
                                qt.codebooks.empty()
                                    ? 0
                                    : qt.codebooks[0].storedEntries(),
                                0));

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
                ++counts[cb_id][stored];
                if (cb_id == 0 && rows_per_block > 0)
                    ++block_counts[r / rows_per_block][stored];
            }
        }
    }

    ProfileResult res;
    res.histograms.reserve(counts.size());
    for (auto &c : counts)
        res.histograms.emplace_back(std::move(c));
    res.block_histograms.reserve(block_counts.size());
    for (auto &c : block_counts)
        res.block_histograms.emplace_back(std::move(c));
    return res;
}

ProfileResult
reorderByFrequency(QuantizedTensor &qt)
{
    ProfileResult profile = profileAccesses(qt);

    // Reorder every codebook and remember the old->new index maps.
    std::vector<std::vector<std::uint32_t>> inverse(qt.codebooks.size());
    for (std::size_t c = 0; c < qt.codebooks.size(); ++c) {
        inverse[c] =
            qt.codebooks[c].reorder(profile.histograms[c].frequencyOrder());
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
    auto weights = powerLawWeights(entries, alpha);
    std::vector<std::uint64_t> counts(entries);
    for (std::size_t i = 0; i < entries; ++i)
        counts[i] = static_cast<std::uint64_t>(weights[i] * 100000.0) + 1;
    return AccessHistogram(std::move(counts));
}

} // namespace vqllm::vq
