/**
 * @file
 * Shared-memory bank-conflict modeling.
 *
 * NVIDIA shared memory is organized as 32 banks of 4-byte words; a warp
 * load is split into one transaction per distinct word needed from the
 * most-contended bank (accesses to the *same* word broadcast for free).
 * Codebook dequantization issues warp loads whose 32 lane addresses are
 * data-dependent codebook-entry indices — the irregular pattern the paper
 * identifies as a primary inefficiency (Sec. III, Takeaway 1).
 *
 * Two interfaces are provided:
 *  - exact counting given concrete lane addresses (used by functional
 *    kernel execution and unit tests), and
 *  - a Monte-Carlo expectation for a given entry-popularity distribution
 *    (used by the analytical kernel models at paper-scale shapes).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gpusim/gpu_spec.h"

namespace vqllm::gpusim {

/**
 * Count the transactions needed for one warp-wide shared-memory access.
 *
 * Each lane reads `bytes_per_lane` starting at its byte address.  The
 * access is decomposed into 4-byte word phases; in each phase the
 * transaction count is the maximum, over banks, of the number of
 * *distinct* words addressed in that bank.
 *
 * @param spec            GPU description (bank count, word size)
 * @param lane_byte_addrs starting byte address per active lane
 * @param bytes_per_lane  contiguous bytes read by each lane
 * @return total transactions (>= number of word phases; == phases when
 *         conflict-free)
 */
std::uint64_t warpTransactions(const GpuSpec &spec,
                               const std::vector<std::uint32_t>
                                   &lane_byte_addrs,
                               unsigned bytes_per_lane);

/**
 * Monte-Carlo estimate of the average conflict multiplier for random
 * codebook-entry accesses.
 *
 * Lanes pick entries i.i.d. from `entry_weights` (unnormalized
 * popularity); each entry occupies `entry_bytes` contiguous bytes starting
 * at index*entry_bytes.  The returned multiplier is
 * E[transactions] / word_phases, i.e. 1.0 means conflict-free.
 *
 * A pure function of its arguments (the RNG is seeded), so callers may
 * memoize it; kernels::estimateVq*Kernel does, keyed by the histogram
 * and cache boundaries the weights derive from.
 *
 * @param spec          GPU description
 * @param entry_weights popularity of each entry resident in shared memory
 * @param entry_bytes   bytes per entry
 * @param samples       number of simulated warp accesses
 * @param seed          RNG seed (deterministic)
 */
double expectedConflictMultiplier(const GpuSpec &spec,
                                  const std::vector<double> &entry_weights,
                                  unsigned entry_bytes,
                                  int samples = 512,
                                  std::uint64_t seed = 0x5eedu);

/**
 * Convenience overload: uniform popularity over `num_entries` entries.
 */
double expectedConflictMultiplier(const GpuSpec &spec,
                                  std::size_t num_entries,
                                  unsigned entry_bytes,
                                  int samples = 512,
                                  std::uint64_t seed = 0x5eedu);

} // namespace vqllm::gpusim
