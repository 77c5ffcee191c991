/**
 * @file
 * The codebook cache (paper Sec. V): a software-managed placement of
 * codebook entries across the GPU memory hierarchy.
 *
 * After frequency reordering (vq::reorderByFrequency) entry index equals
 * frequency rank, so placement reduces to two boundaries:
 *
 *   index <  n_reg              -> thread-local registers (hot)
 *   n_reg <= index < n_shared   -> shared memory           (medium)
 *   index >= n_shared           -> global memory           (cold)
 *
 * The boundaries are chosen adaptively from the *resource slack* of the
 * consuming kernel (gpusim::computeSlack) so that caching never reduces
 * occupancy (Fig. 10), and the register boundary is additionally capped
 * by the number of genuinely hot entries (frequency > mu + 3 sigma),
 * since only those are worth per-thread replication.
 *
 * The runtime interface mirrors the paper's user API:
 *   Load   -> CodebookCache::load()
 *   Access -> CodebookCache::access()
 *   Switch -> CodebookCache::switchTo()
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/gpu_spec.h"
#include "gpusim/occupancy.h"
#include "gpusim/traffic.h"
#include "vq/codebook.h"
#include "vq/profiler.h"

namespace vqllm::cache {

/** Memory tier holding a cached entry. */
enum class Tier {
    Register,
    Shared,
    Global,
};

/** Static placement decision for one codebook configuration. */
struct CachePlan
{
    /** Entries [0, n_reg) live in registers. */
    std::size_t n_reg = 0;
    /** Entries [n_reg, n_shared) live in shared memory. */
    std::size_t n_shared = 0;
    /** Total stored entries of the codebook. */
    std::size_t total_entries = 0;
    /** Bytes per stored entry. */
    std::size_t entry_bytes = 0;

    /** @return tier of a (frequency-ranked) stored entry index. */
    Tier
    tierOf(std::uint32_t stored_index) const
    {
        if (stored_index < n_reg)
            return Tier::Register;
        if (stored_index < n_shared)
            return Tier::Shared;
        return Tier::Global;
    }

    /** @return shared-memory bytes consumed by the cached entries. */
    std::size_t
    smemBytes() const
    {
        return (n_shared - n_reg) * entry_bytes;
    }

    /** @return per-thread registers consumed by the register tier. */
    int
    regsPerThread() const
    {
        // Entries are replicated per thread, 4 bytes per register.
        return static_cast<int>((n_reg * entry_bytes + 3) / 4);
    }

    /** @return number of entries resident in shared memory. */
    std::size_t
    sharedEntries() const
    {
        return n_shared - n_reg;
    }
};

/** Memory tiers a placement may use (paper Tbl. IV optimization
 *  ladder). */
enum class CacheTiers {
    /** GC baseline: every entry stays in global memory. */
    None,
    /** SC baseline: *all* entries in shared memory regardless of
     *  slack, reducing occupancy like the naive version. */
    GreedyShared,
    /** O1: an adaptive shared tier, no registers. */
    Shared,
    /** O2 and up: adaptive shared and register tiers. */
    SharedAndRegisters,
};

/** Sigma multiplier defining "hot" entries for the register tier. */
inline constexpr double kHotSigma = 3.0;
/** Cap on register-tier entries regardless of slack. */
inline constexpr std::size_t kMaxRegEntries = 32;

/**
 * Decide cache boundaries for a codebook given the consuming kernel's
 * resource footprint (paper Sec. V-B "Adaptivity").
 *
 * @param spec          target GPU
 * @param compute_block the consumer kernel's own per-block resources
 *                      (cache allocations are carved from its slack)
 * @param total_entries stored entries per codebook
 * @param entry_bytes   bytes per stored entry
 * @param hist          access histogram (frequency-ranked not required);
 *                      may be null, in which case the hot-entry cap
 *                      falls back to kMaxRegEntries
 * @param tiers         tiers the placement may use
 */
CachePlan planCache(const gpusim::GpuSpec &spec,
                    const gpusim::BlockResources &compute_block,
                    std::size_t total_entries, std::size_t entry_bytes,
                    const vq::AccessHistogram *hist = nullptr,
                    CacheTiers tiers = CacheTiers::SharedAndRegisters);

/** Access-tier hit counts recorded by a CodebookCache. */
struct AccessStats
{
    std::uint64_t reg_hits = 0;
    std::uint64_t shared_hits = 0;
    std::uint64_t global_hits = 0;

    std::uint64_t
    total() const
    {
        return reg_hits + shared_hits + global_hits;
    }

    /** Accumulate another tier tally into this one. */
    AccessStats &
    operator+=(const AccessStats &o)
    {
        reg_hits += o.reg_hits;
        shared_hits += o.shared_hits;
        global_hits += o.global_hits;
        return *this;
    }
};

/**
 * Runtime view of one codebook cached across the memory hierarchy.
 *
 * Functional: access() decodes entries bit-exactly via the underlying
 * codebook.  Architectural: every access records its tier so kernels can
 * convert hits into memory traffic and bank-conflict serialization.
 */
class CodebookCache
{
  public:
    /**
     * Load a codebook into the cache (paper API: Load).
     *
     * Counts the initial placement traffic into `counters` if non-null:
     * global->shared bytes for the shared tier, plus one broadcast load
     * per warp for the register tier.
     *
     * @param codebook        frequency-reordered codebook
     * @param plan            placement boundaries
     * @param warps_per_block warps that replicate the register tier
     * @param counters        optional traffic accumulator
     */
    static CodebookCache load(const vq::Codebook &codebook,
                              const CachePlan &plan, int warps_per_block,
                              gpusim::KernelCounters *counters = nullptr);

    /**
     * Decode a logical index, recording the access tier (paper API:
     * Access).
     *
     * @param logical logical entry index (lattice indices allowed)
     * @param out     receives vector_size reconstructed elements
     * @return the tier that served the access
     */
    Tier access(std::uint32_t logical, float *out);

    /**
     * Switch to a different codebook reusing this plan (paper API:
     * Switch).  Re-counts placement traffic into `counters`.
     */
    void switchTo(const vq::Codebook &codebook,
                  gpusim::KernelCounters *counters = nullptr);

    const CachePlan &plan() const { return plan_; }
    const AccessStats &stats() const { return stats_; }
    const vq::Codebook &codebook() const { return *codebook_; }

    /**
     * Shared-memory byte offset of a stored index resident in the shared
     * tier (used for exact warp-level bank-conflict counting).
     */
    std::uint32_t
    sharedOffsetOf(std::uint32_t stored_index) const
    {
        return static_cast<std::uint32_t>(
            (stored_index - plan_.n_reg) * plan_.entry_bytes);
    }

  private:
    const vq::Codebook *codebook_ = nullptr;
    CachePlan plan_;
    int warpsPerBlock_ = 1;
    AccessStats stats_;
};

} // namespace vqllm::cache
