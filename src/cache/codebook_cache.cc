#include "cache/codebook_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace vqllm::cache {

CachePlan
planCache(const gpusim::GpuSpec &spec,
          const gpusim::BlockResources &compute_block,
          std::size_t total_entries, std::size_t entry_bytes,
          const vq::AccessHistogram *hist, CacheTiers tiers)
{
    vqllm_assert(entry_bytes > 0, "entry_bytes must be positive");
    CachePlan plan;
    plan.total_entries = total_entries;
    plan.entry_bytes = entry_bytes;

    if (tiers == CacheTiers::None) {
        // GC baseline: everything stays in global memory.
        plan.n_reg = 0;
        plan.n_shared = 0;
        return plan;
    }

    if (tiers == CacheTiers::GreedyShared) {
        // SC baseline: cache all entries in shared memory, no registers,
        // regardless of the occupancy cost (paper Sec. III).  Physically
        // capped by the per-block shared-memory limit.
        std::size_t available =
            spec.max_smem_per_block > compute_block.smem_bytes
                ? spec.max_smem_per_block - compute_block.smem_bytes
                : 0;
        plan.n_reg = 0;
        plan.n_shared = std::min(total_entries, available / entry_bytes);
        return plan;
    }

    gpusim::ResourceSlack slack = gpusim::computeSlack(spec, compute_block);

    // Register tier: bounded by (a) register slack, (b) the number of
    // genuinely hot entries, (c) a hard cap.
    std::size_t n_reg = 0;
    if (tiers == CacheTiers::SharedAndRegisters) {
        std::size_t by_slack =
            static_cast<std::size_t>(slack.regs_per_thread) * 4 /
            entry_bytes;
        std::size_t by_hotness =
            hist ? hist->entriesAbove(kHotSigma) : kMaxRegEntries;
        n_reg = std::min({by_slack, by_hotness, kMaxRegEntries,
                          total_entries});
    }

    // Shared tier: fill the shared-memory slack with the next-hottest
    // entries.
    std::size_t by_smem_slack = slack.smem_bytes / entry_bytes;
    std::size_t n_shared =
        n_reg + std::min(by_smem_slack, total_entries - n_reg);

    plan.n_reg = n_reg;
    plan.n_shared = n_shared;
    return plan;
}

CodebookCache
CodebookCache::load(const vq::Codebook &codebook, const CachePlan &plan,
                    int warps_per_block, gpusim::KernelCounters *counters)
{
    vqllm_assert(plan.entry_bytes == codebook.vectorSize() * 2,
                 "plan entry bytes ", plan.entry_bytes,
                 " != codebook entry bytes ", codebook.vectorSize() * 2);
    vqllm_assert(plan.total_entries == codebook.storedEntries(),
                 "plan entries mismatch");
    CodebookCache cache;
    cache.codebook_ = &codebook;
    cache.plan_ = plan;
    cache.warpsPerBlock_ = warps_per_block;
    if (counters) {
        std::uint64_t shared_bytes = plan.smemBytes();
        std::uint64_t reg_bytes = static_cast<std::uint64_t>(plan.n_reg) *
                                  plan.entry_bytes * warps_per_block;
        counters->dram_read_bytes += shared_bytes + reg_bytes;
        counters->global_to_shared_bytes += shared_bytes;
    }
    return cache;
}

Tier
CodebookCache::access(std::uint32_t logical, float *out)
{
    vqllm_assert(codebook_ != nullptr, "cache not loaded");
    std::uint32_t stored = codebook_->storedIndexOf(logical);
    Tier tier = plan_.tierOf(stored);
    switch (tier) {
      case Tier::Register: ++stats_.reg_hits; break;
      case Tier::Shared:   ++stats_.shared_hits; break;
      case Tier::Global:   ++stats_.global_hits; break;
    }
    codebook_->decode(logical, out);
    return tier;
}

void
CodebookCache::switchTo(const vq::Codebook &codebook,
                        gpusim::KernelCounters *counters)
{
    vqllm_assert(codebook.storedEntries() == plan_.total_entries &&
                     codebook.vectorSize() * 2 == plan_.entry_bytes,
                 "switched codebook is incompatible with the plan");
    codebook_ = &codebook;
    if (counters) {
        std::uint64_t shared_bytes = plan_.smemBytes();
        std::uint64_t reg_bytes =
            static_cast<std::uint64_t>(plan_.n_reg) * plan_.entry_bytes *
            warpsPerBlock_;
        counters->dram_read_bytes += shared_bytes + reg_bytes;
        counters->global_to_shared_bytes += shared_bytes;
    }
}

} // namespace vqllm::cache
