#include "gpusim/bank_conflict.h"

#include <algorithm>

#include "common/logging.h"

namespace vqllm::gpusim {

namespace {

constexpr unsigned kWordBytes = 4;

/**
 * Transactions of one warp access given its phase-0 lane word
 * addresses: phases x the maximum, over banks, of the distinct words
 * addressed in that bank (same-word lanes broadcast).  Sorts and dedups
 * `words` in place; `bank_count` is caller-owned scratch with one slot
 * per bank.
 *
 * Phase p reads word w+p for every phase-0 word w.  The shift maps
 * distinct words to distinct words and rotates every word's bank by
 * the same p, so each phase's per-bank counts are the phase-0 counts
 * rotated and their maximum is the same; one pass covers all phases.
 */
std::uint64_t
transactions(std::vector<std::uint32_t> &words,
             std::vector<std::uint32_t> &bank_count, unsigned phases)
{
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    std::fill(bank_count.begin(), bank_count.end(), 0u);
    const auto banks = static_cast<std::uint32_t>(bank_count.size());
    // An empty warp still costs one transaction a phase.
    std::uint32_t degree = 1;
    for (std::uint32_t w : words)
        degree = std::max(degree, ++bank_count[w % banks]);
    return static_cast<std::uint64_t>(phases) * degree;
}

} // namespace

std::uint64_t
warpTransactions(const GpuSpec &spec,
                 const std::vector<std::uint32_t> &lane_byte_addrs,
                 unsigned bytes_per_lane)
{
    vqllm_assert(bytes_per_lane > 0, "bytes_per_lane must be positive");
    vqllm_assert(static_cast<int>(lane_byte_addrs.size()) <= spec.warp_size,
                 "more lanes than warp size");
    unsigned phases = (bytes_per_lane + kWordBytes - 1) / kWordBytes;

    std::vector<std::uint32_t> words(lane_byte_addrs.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = lane_byte_addrs[i] / kWordBytes;
    std::vector<std::uint32_t> bank_count(spec.smem_banks);
    return transactions(words, bank_count, phases);
}

double
expectedConflictMultiplier(const GpuSpec &spec,
                           const std::vector<double> &entry_weights,
                           unsigned entry_bytes, int samples,
                           std::uint64_t seed)
{
    vqllm_assert(!entry_weights.empty(), "no entries");
    vqllm_assert(entry_bytes > 0, "entry_bytes must be positive");
    Rng rng(seed);

    // Precompute the popularity CDF once.
    std::vector<double> cdf(entry_weights.size());
    double acc = 0;
    for (std::size_t i = 0; i < entry_weights.size(); ++i) {
        acc += entry_weights[i];
        cdf[i] = acc;
    }
    vqllm_assert(acc > 0, "weights sum to zero");

    auto draw = [&]() -> std::uint32_t {
        double r = rng.uniform() * acc;
        auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
        return static_cast<std::uint32_t>(it - cdf.begin());
    };

    unsigned phases = (entry_bytes + kWordBytes - 1) / kWordBytes;
    std::uint64_t total_trans = 0;
    std::vector<std::uint32_t> words(spec.warp_size);
    std::vector<std::uint32_t> bank_count(spec.smem_banks);
    for (int s = 0; s < samples; ++s) {
        words.resize(spec.warp_size);
        for (int lane = 0; lane < spec.warp_size; ++lane)
            words[lane] = draw() * entry_bytes / kWordBytes;
        total_trans += transactions(words, bank_count, phases);
    }
    double avg = static_cast<double>(total_trans) / samples;
    return avg / phases;
}

double
expectedConflictMultiplier(const GpuSpec &spec, std::size_t num_entries,
                           unsigned entry_bytes, int samples,
                           std::uint64_t seed)
{
    return expectedConflictMultiplier(
        spec, std::vector<double>(num_entries, 1.0), entry_bytes, samples,
        seed);
}

} // namespace vqllm::gpusim
