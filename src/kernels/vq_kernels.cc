#include "kernels/vq_kernels.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>
#include <mutex>
#include <numeric>

#include "common/bitutils.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "gpusim/bank_conflict.h"
#include "kernels/reference.h"

namespace vqllm::kernels {

using engine::FusionLevel;
using engine::KernelPlan;
using engine::OptLevel;

namespace {

/** Sum of the counts at frequency ranks [first, last), both clamped to
 *  the histogram's size. */
std::uint64_t
rankSum(const vq::AccessHistogram &hist, std::size_t first,
        std::size_t last)
{
    const auto &desc = hist.descendingCounts();
    first = std::min(first, desc.size());
    last = std::min(std::max(first, last), desc.size());
    return std::accumulate(desc.begin() + first, desc.begin() + last,
                           std::uint64_t{0});
}

} // namespace

TierFractions
tierHitFractions(const cache::CachePlan &plan,
                 const vq::AccessHistogram *hist)
{
    TierFractions f;
    if (plan.total_entries == 0) {
        f.global = 1.0;
        return f;
    }
    if (hist && hist->size() == plan.total_entries && hist->total() > 0) {
        // Frequency-ranked: entry index == rank after reordering.
        const auto total = static_cast<double>(hist->total());
        f.reg = static_cast<double>(rankSum(*hist, 0, plan.n_reg)) / total;
        f.shared = static_cast<double>(
                       rankSum(*hist, plan.n_reg, plan.n_shared)) /
                   total;
    } else {
        f.reg = static_cast<double>(plan.n_reg) / plan.total_entries;
        f.shared = static_cast<double>(plan.n_shared - plan.n_reg) /
                   plan.total_entries;
    }
    f.global = std::max(0.0, 1.0 - f.reg - f.shared);
    return f;
}

namespace {

/**
 * Key of the conflict-multiplier memo: every input that decides the
 * estimate.  Under a histogram the shared tier holds frequency ranks
 * [first_rank, end_rank) of the book with that digest and size; under
 * uniform popularity (digest 0, which no histogram has) it holds
 * end_rank equally popular entries.
 */
struct ConflictKey
{
    std::uint64_t digest = 0;
    std::size_t entries = 0;
    std::size_t first_rank = 0;
    std::size_t end_rank = 0;
    unsigned entry_bytes = 0;
    int warp_size = 0;
    int smem_banks = 0;

    auto operator<=>(const ConflictKey &) const = default;
};

/**
 * Conflict multiplier over the shared-resident entry slice.
 *
 * The Monte-Carlo estimate is a pure function of its key (seeded RNG),
 * so one process-wide map memoizes it: a hit builds no weight vector
 * and hashes nothing, and returns exactly what a rerun would.  Misses
 * simulate outside the lock; racing misses store the same value.
 */
double
sharedConflictMultiplier(const gpusim::GpuSpec &spec,
                         const cache::CachePlan &plan,
                         const vq::AccessHistogram *hist)
{
    std::size_t resident = plan.sharedEntries();
    if (resident == 0)
        return 1.0;
    const bool ranked = hist && hist->size() == plan.total_entries;
    ConflictKey key;
    if (ranked) {
        key.digest = hist->digest();
        key.entries = hist->size();
        key.first_rank = plan.n_reg;
        key.end_rank = plan.n_shared;
    } else {
        key.end_rank = resident;
    }
    key.entry_bytes = static_cast<unsigned>(plan.entry_bytes);
    key.warp_size = spec.warp_size;
    key.smem_banks = spec.smem_banks;

    static std::mutex memo_mutex;
    static std::map<ConflictKey, double> memo;
    {
        std::lock_guard<std::mutex> lock(memo_mutex);
        auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
    }
    std::vector<double> weights;
    if (ranked) {
        // The shared tier holds frequency ranks [n_reg, n_shared).
        const auto &desc = hist->descendingCounts();
        for (std::size_t rank = plan.n_reg; rank < plan.n_shared; ++rank)
            weights.push_back(
                static_cast<double>(desc[std::min(rank, desc.size() - 1)]) +
                1.0);
    } else {
        weights.assign(resident, 1.0);
    }
    const double m = gpusim::expectedConflictMultiplier(
        spec, weights, key.entry_bytes, kConflictSamples, kConflictSeed);
    std::lock_guard<std::mutex> lock(memo_mutex);
    memo.emplace(key, m);
    return m;
}

/** Extra integer work per lookup for index decode. */
std::uint64_t
unpackOpsPerLookup(const vq::VQConfig &config)
{
    if (config.lattice)
        return 2; // base/sign split + sign application bit ops
    if (config.indexBits() % 8 != 0)
        return 3; // unaligned (12-bit) shift/mask/merge decode
    return 1;
}

/** Shared counter assembly for both analytic estimators. */
void
addCodebookCounters(gpusim::KernelCounters &c, const KernelPlan &plan,
                    const gpusim::GpuSpec &spec,
                    const vq::AccessHistogram *hist, std::uint64_t lookups,
                    std::uint64_t dequant_bytes,
                    std::uint64_t exchanged_subvectors)
{
    const auto &cfg = plan.config;
    TierFractions f = tierHitFractions(plan.cache_plan, hist);

    // Codebook preload traffic (Load/Switch): the dataflow plan's
    // codebook bytes scaled by the fraction of each book actually cached.
    double coverage =
        plan.cache_plan.total_entries == 0
            ? 0.0
            : static_cast<double>(plan.cache_plan.n_shared) /
                  plan.cache_plan.total_entries;
    std::uint64_t preload = static_cast<std::uint64_t>(
        static_cast<double>(plan.dataflow.codebook_bytes) * coverage);
    c.dram_read_bytes += preload;
    c.global_to_shared_bytes += preload;

    // Global-tier lookups fetch entries through L1 with poor locality.
    std::uint64_t global_lookups = static_cast<std::uint64_t>(
        static_cast<double>(lookups) * f.global);
    c.dram_read_bytes += static_cast<std::uint64_t>(
        static_cast<double>(global_lookups) * (1.0 - kGcL1Hit) *
        kSectorBytes);

    // Shared-tier lookups: warp-wide banked accesses with conflicts.
    std::uint64_t shared_lookups = static_cast<std::uint64_t>(
        static_cast<double>(lookups) * f.shared);
    unsigned phases =
        (static_cast<unsigned>(cfg.entryBytes()) + 3) / 4;
    std::uint64_t ideal = shared_lookups / spec.warp_size * phases;
    double mult = sharedConflictMultiplier(spec, plan.cache_plan, hist);
    c.smem_ideal_transactions += ideal;
    c.smem_transactions += static_cast<std::uint64_t>(
        static_cast<double>(ideal) * mult);
    c.shared_to_reg_bytes += shared_lookups * cfg.entryBytes();

    // Dequantization bookkeeping.
    c.dequant_lookups += lookups;
    c.unpack_ops += lookups * unpackOpsPerLookup(cfg);

    // Hierarchical fusion: shared-level staging round-trips the
    // dequantized data; register-level fusion shuffles instead.
    if (plan.fusion.level == FusionLevel::Shared) {
        c.reg_to_shared_bytes += dequant_bytes;
        c.shared_to_reg_bytes += dequant_bytes;
        std::uint64_t staging_trans = 2 * dequant_bytes / 128;
        c.smem_transactions += staging_trans;
        c.smem_ideal_transactions += staging_trans;
    } else if (plan.fusion.num_shuffles > 0) {
        c.shuffle_ops += exchanged_subvectors / spec.warp_size *
                         plan.fusion.num_shuffles;
    }

    // Global reduction stage of the codebook-centric dataflow.
    c.reduce_bytes += plan.dataflow.reduce_bytes;
}

} // namespace

KernelResult
estimateVqWeightKernel(const gpusim::GpuSpec &spec, const KernelPlan &plan,
                       const vq::AccessHistogram *hist)
{
    vqllm_assert(plan.kind == engine::OpKind::GeMM ||
                     plan.kind == engine::OpKind::GeMV,
                 "weight kernel estimate requires a GeMM/GeMV plan");
    const auto &shape = plan.gemm;
    const auto &cfg = plan.config;
    const double dup = plan.dataflow.compute_duplication;

    // GeMM blocks tiling the batch dimension each re-dequantize the
    // weight strips they consume: fused dequantization cannot be shared
    // across output-row blocks.  This is the "extra operation" cost that
    // makes VQ integration quality matter most for compute-bound
    // kernels (Sec. VII-B).
    std::uint64_t redequant =
        plan.kind == engine::OpKind::GeMM
            ? std::max<std::uint64_t>(
                  1, ceilDiv(shape.m, engine::BaselineTiling::gemm_block_rows))
            : 1;

    std::uint64_t weight_elems =
        static_cast<std::uint64_t>(shape.k) * shape.n;
    std::uint64_t subvectors = weight_elems / cfg.vector_size * redequant;
    std::uint64_t lookups = subvectors * cfg.residuals;

    gpusim::KernelCounters c;
    std::uint64_t idx_bytes = static_cast<std::uint64_t>(
        static_cast<double>(weight_elems) * cfg.bitsPerElement() / 8.0 *
        redequant);
    std::uint64_t act_bytes = static_cast<std::uint64_t>(
        static_cast<double>(shape.m) * shape.k * 2 * dup);
    c.dram_read_bytes = idx_bytes + act_bytes;
    c.dram_write_bytes = static_cast<std::uint64_t>(shape.m) * shape.n * 2;
    c.global_to_shared_bytes += idx_bytes + act_bytes;

    // Activation/index tiles stream through shared memory.
    std::uint64_t tile_trans = (idx_bytes + act_bytes) * 2 / 128;
    c.smem_transactions += tile_trans;
    c.smem_ideal_transactions += tile_trans;

    c.flops = static_cast<std::uint64_t>(
        static_cast<double>(shape.flops()) * dup);
    c.flops += lookups * cfg.vector_size; // residual accumulation adds

    // Dequantized staging volume: each stage/tile is dequantized once
    // (a residual split does not re-dequantize, only re-runs the
    // mainloop), but GeMM row blocks each re-dequantize their strips.
    std::uint64_t dequant_bytes =
        weight_elems * 2 * redequant;
    addCodebookCounters(c, plan, spec, hist, lookups, dequant_bytes,
                        subvectors);

    gpusim::LaunchConfig launch;
    launch.grid_blocks = plan.grid_blocks;
    launch.block = plan.block;
    launch.uses_tensor_cores = plan.uses_tensor_cores;
    return finishEstimate(spec, launch, c);
}

KernelResult
estimateVqAttentionKernel(const gpusim::GpuSpec &spec,
                          const KernelPlan &plan,
                          const vq::AccessHistogram *hist)
{
    vqllm_assert(plan.kind == engine::OpKind::AttentionDecode,
                 "attention estimate requires an attention plan");
    const auto &shape = plan.attn;
    const auto &cfg = plan.config;

    std::uint64_t kv_elems = shape.kvElements();
    std::uint64_t subvectors = kv_elems / cfg.vector_size;
    std::uint64_t lookups = subvectors * cfg.residuals;

    gpusim::KernelCounters c;
    std::uint64_t idx_bytes = static_cast<std::uint64_t>(
        static_cast<double>(kv_elems) * cfg.bitsPerElement() / 8.0);
    std::uint64_t q_bytes = static_cast<std::uint64_t>(shape.batch) *
                            shape.heads * shape.head_dim * 2;
    c.dram_read_bytes = idx_bytes + q_bytes;
    c.dram_write_bytes = shape.outputElements() * 2;
    c.global_to_shared_bytes += idx_bytes;

    std::uint64_t tile_trans = idx_bytes * 2 / 128;
    c.smem_transactions += tile_trans;
    c.smem_ideal_transactions += tile_trans;

    c.flops = shape.flops() +
              5ull * shape.batch * shape.heads * shape.seq_len; // softmax
    c.flops += lookups * cfg.vector_size;

    // Only the V cache round-trips: the K cache dequantizes in its
    // consumption order (Fig. 6).
    std::uint64_t v_bytes = kv_elems / 2 * 2; // half the elements, FP16
    std::uint64_t v_subvectors = subvectors / 2;
    addCodebookCounters(c, plan, spec, hist, lookups, v_bytes,
                        v_subvectors);

    // Baseline FlashDecoding dataflow keeps its own token-split
    // reduction pass (the codebook-centric one replaces it).
    if (plan.level < OptLevel::O3) {
        std::uint64_t bh = static_cast<std::uint64_t>(shape.batch) *
                           shape.heads;
        std::uint64_t blocks_t = ceilDiv(
            shape.seq_len, engine::BaselineTiling::attn_block_tokens);
        c.reduce_bytes += bh * blocks_t * (shape.head_dim + 2) * 4;
    }

    gpusim::LaunchConfig launch;
    launch.grid_blocks = plan.grid_blocks;
    launch.block = plan.block;
    launch.uses_tensor_cores = plan.uses_tensor_cores;
    return finishEstimate(spec, launch, c);
}

namespace {

/**
 * Warp-granular access recorder: batches shared-tier entry accesses of
 * one codebook into 32-lane groups and counts exact bank transactions.
 */
class WarpAccessRecorder
{
  public:
    WarpAccessRecorder(const gpusim::GpuSpec &spec,
                       gpusim::KernelCounters &counters, unsigned
                           entry_bytes)
        : spec_(spec), counters_(counters), entryBytes_(entry_bytes)
    {
    }

    void
    record(cache::Tier tier, std::uint32_t shared_offset)
    {
        if (tier == cache::Tier::Shared)
            pending_.push_back(shared_offset);
        if (static_cast<int>(pending_.size()) == spec_.warp_size)
            flush();
    }

    void
    flush()
    {
        if (pending_.empty())
            return;
        unsigned phases = (entryBytes_ + 3) / 4;
        counters_.smem_ideal_transactions += phases;
        counters_.smem_transactions +=
            gpusim::warpTransactions(spec_, pending_, entryBytes_);
        counters_.shared_to_reg_bytes +=
            pending_.size() * entryBytes_;
        pending_.clear();
    }

  private:
    const gpusim::GpuSpec &spec_;
    gpusim::KernelCounters &counters_;
    unsigned entryBytes_;
    std::vector<std::uint32_t> pending_;
};

/** Counters and tier statistics of one chunk, merged in chunk order. */
struct ChunkTally
{
    gpusim::KernelCounters counters;
    cache::AccessStats stats;

    ChunkTally &
    operator+=(const ChunkTally &o)
    {
        counters += o.counters;
        stats += o.stats;
        return *this;
    }
};

/**
 * One quantized operand's runtime state inside one chunk: private
 * CodebookCache instances and a private WarpAccessRecorder, counting
 * into the chunk's counters.
 *
 * Codebook Load traffic is counted once per kernel traversal
 * (single-block-equivalent accounting): only chunk 0 passes a counter
 * sink to CodebookCache::load.
 */
class OperandContext
{
  public:
    /**
     * @param staged     charge the shared-memory fusion round-trip of
     *                   every dequantized sub-vector
     * @param count_load count the caches' Load traffic
     */
    OperandContext(const gpusim::GpuSpec &spec, const KernelPlan &plan,
                   const vq::QuantizedTensor &qt, bool staged,
                   bool count_load, gpusim::KernelCounters &counters)
        : qt_(qt), counters_(counters),
          recorder_(spec, counters,
                    static_cast<unsigned>(qt.config.entryBytes())),
          staged_(staged), dec_(qt.config.vector_size),
          sub_(qt.config.vector_size)
    {
        cache::CachePlan book_plan = plan.cache_plan;
        book_plan.total_entries = qt.config.storedEntries();
        book_plan.n_shared =
            std::min(book_plan.n_shared, book_plan.total_entries);
        book_plan.n_reg = std::min(book_plan.n_reg, book_plan.n_shared);
        caches_.reserve(qt.codebooks.size());
        for (const auto &cb : qt.codebooks)
            caches_.push_back(cache::CodebookCache::load(
                cb, book_plan, plan.warpsPerBlock(),
                count_load ? &counters : nullptr));
    }

    /** The chunk's counters (shared by its operands). */
    gpusim::KernelCounters &counters() { return counters_; }

    /**
     * Dequantize one sub-vector through the caches, recording events.
     * @return the sub-vector, valid until the next call
     */
    const float *
    dequant(std::size_t row, std::size_t subspace)
    {
        const unsigned vec = qt_.config.vector_size;
        float *out = sub_.data();
        for (unsigned d = 0; d < vec; ++d)
            out[d] = 0.0f;
        float *dec = dec_.data();
        std::size_t unit = qt_.codebookUnit(row, subspace);
        for (unsigned stage = 0; stage < qt_.config.residuals; ++stage) {
            std::size_t cb_id = unit * qt_.config.residuals + stage;
            auto &cache = caches_[cb_id];
            std::uint32_t logical =
                qt_.indices.get(qt_.indexPosition(row, subspace, stage));
            cache::Tier tier = cache.access(logical, dec);
            ++counters_.dequant_lookups;
            std::uint32_t stored =
                cache.codebook().storedIndexOf(logical);
            recorder_.record(tier,
                             tier == cache::Tier::Shared
                                 ? cache.sharedOffsetOf(stored)
                                 : 0);
            if (tier == cache::Tier::Global) {
                counters_.dram_read_bytes += qt_.config.entryBytes();
            }
            for (unsigned d = 0; d < vec; ++d)
                out[d] += dec[d];
        }
        if (staged_) {
            counters_.reg_to_shared_bytes += vec * 2;
            counters_.shared_to_reg_bytes += vec * 2;
        }
        return out;
    }

    /** Flush the last partial warp and add the caches' tier hits. */
    void
    finish(cache::AccessStats &stats)
    {
        recorder_.flush();
        for (const auto &cache : caches_)
            stats += cache.stats();
    }

  private:
    const vq::QuantizedTensor &qt_;
    gpusim::KernelCounters &counters_;
    std::vector<cache::CodebookCache> caches_;
    WarpAccessRecorder recorder_;
    bool staged_;
    /** Reusable decode scratch: dequant sits in every inner loop. */
    std::vector<float> dec_;
    std::vector<float> sub_;
};

/** Output rows per functional chunk (one warp of rows). */
constexpr std::size_t kRowChunk = 32;

/** Heads per functional attention chunk. */
constexpr std::size_t kHeadChunk = 1;

/**
 * The scaffold of the functional executors.  [0, n) output rows (or
 * heads) split into statically sized chunks (common/parallel.h); each
 * chunk builds one OperandContext per quantized operand and runs
 * `body(chunk, contexts)`, which writes the chunk's own slice of
 * `result.output`.  Chunk tallies merge in chunk-index order, so outputs
 * and counters are bit-identical for any thread count.
 *
 * The last operand is the exchanged one (the weights, or the V cache):
 * shared-memory fusion stages its sub-vectors, and register fusion
 * charges `exchanged_subvectors` shuffles per warp instead.
 */
template <typename Body>
void
executeChunked(FunctionalResult &result, const KernelPlan &plan,
               std::initializer_list<const vq::QuantizedTensor *> operands,
               std::size_t n, std::size_t grain,
               std::uint64_t exchanged_subvectors, const Body &body)
{
    const gpusim::GpuSpec &spec = gpusim::rtx4090();
    const bool shared = plan.fusion.level == FusionLevel::Shared;
    ChunkTally total = par::parallelSum<ChunkTally>(
        n, grain, [&](const par::ChunkRange &c) {
            ChunkTally tally;
            std::vector<OperandContext> ctx;
            ctx.reserve(operands.size());
            for (const vq::QuantizedTensor *qt : operands)
                ctx.emplace_back(spec, plan, *qt,
                                 shared && ctx.size() + 1 == operands.size(),
                                 c.index == 0, tally.counters);
            body(c, ctx);
            for (OperandContext &operand : ctx)
                operand.finish(tally.stats);
            return tally;
        });
    result.counters = total.counters;
    result.stats = total.stats;
    if (plan.fusion.level == FusionLevel::Register)
        result.counters.shuffle_ops += exchanged_subvectors /
                                       spec.warp_size *
                                       plan.fusion.num_shuffles;
}

} // namespace

FunctionalResult
runVqGemv(const KernelPlan &plan, const vq::QuantizedTensor &qt,
          const Tensor<float> &x)
{
    vqllm_assert(plan.kind == engine::OpKind::GeMV,
                 "runVqGemv requires a GeMV plan");
    vqllm_assert(x.rank() == 1 && x.dim(0) == qt.cols,
                 "x must be [k] with k == qt.cols");
    const unsigned vec = qt.config.vector_size;

    FunctionalResult result;
    result.output = Tensor<float>({qt.rows});
    executeChunked(
        result, plan, {&qt}, qt.rows, kRowChunk, qt.rows * qt.subspaces(),
        [&](const par::ChunkRange &c, auto &ctx) {
            for (std::size_t r = c.begin; r < c.end; ++r) {
                double acc = 0;
                for (std::size_t s = 0; s < qt.subspaces(); ++s)
                    acc += static_cast<double>(simd::dot(
                        ctx[0].dequant(r, s), x.data() + s * vec, vec));
                result.output[r] = static_cast<float>(acc);
            }
        });
    return result;
}

FunctionalResult
runVqGemm(const KernelPlan &plan, const vq::QuantizedTensor &qt,
          const Tensor<float> &x)
{
    vqllm_assert(plan.kind == engine::OpKind::GeMM,
                 "runVqGemm requires a GeMM plan");
    vqllm_assert(x.rank() == 2 && x.dim(1) == qt.cols,
                 "x must be [m, k] with k == qt.cols");
    const std::size_t m = x.dim(0);
    const std::size_t k = qt.cols;
    const unsigned vec = qt.config.vector_size;

    FunctionalResult result;
    result.output = Tensor<float>({m, qt.rows});

    // Chunks partition the *output feature* dimension (qt.rows); inside
    // a chunk the batch is processed in row blocks, and every block
    // re-dequantizes its weight strip (the GeMM re-dequantization cost
    // of Sec. VII-B).
    const std::size_t block_rows = engine::BaselineTiling::gemm_block_rows;
    executeChunked(
        result, plan, {&qt}, qt.rows, kRowChunk,
        ceilDiv(m, block_rows) * qt.rows * qt.subspaces(),
        [&](const par::ChunkRange &c, auto &ctx) {
            for (std::size_t m0 = 0; m0 < m; m0 += block_rows) {
                std::size_t m1 = std::min(m, m0 + block_rows);
                for (std::size_t r = c.begin; r < c.end; ++r) {
                    for (std::size_t s = 0; s < qt.subspaces(); ++s) {
                        const float *sub = ctx[0].dequant(r, s);
                        for (std::size_t i = m0; i < m1; ++i) {
                            result.output.at(i, r) += simd::dot(
                                sub, x.data() + i * k + s * vec, vec);
                            ctx[0].counters().flops += 2 * vec;
                        }
                    }
                }
            }
        });
    return result;
}

FunctionalResult
runVqAttention(const KernelPlan &plan, const vq::QuantizedTensor &qt_k,
               const vq::QuantizedTensor &qt_v, const Tensor<float> &q)
{
    vqllm_assert(plan.kind == engine::OpKind::AttentionDecode,
                 "runVqAttention requires an attention plan");
    vqllm_assert(q.rank() == 2, "q must be [heads, head_dim]");
    const std::size_t heads = q.dim(0);
    const std::size_t channels = q.dim(1);
    vqllm_assert(qt_k.cols == heads * channels &&
                     qt_v.cols == heads * channels,
                 "KV column count must be heads * head_dim");
    const unsigned vec = qt_k.config.vector_size;
    vqllm_assert(qt_v.config.vector_size == vec && channels % vec == 0,
                 "head_dim ", channels,
                 " must be a multiple of the K and V vector size ", vec);
    vqllm_assert(qt_k.rows == qt_v.rows, "K/V token count mismatch");
    const std::size_t tokens = qt_k.rows;
    const double inv_sqrt_d =
        1.0 / std::sqrt(static_cast<double>(channels));

    FunctionalResult result;
    result.output = Tensor<float>({heads, channels});

    // Chunks partition the head dimension; each chunk owns private K
    // and V contexts.
    const std::size_t groups_per_head = channels / vec;
    executeChunked(
        result, plan, {&qt_k, &qt_v}, heads, kHeadChunk,
        tokens * qt_v.subspaces(),
        [&](const par::ChunkRange &c, auto &ctx) {
            std::vector<float> logits(tokens, 0.0f);
            for (std::size_t h = c.begin; h < c.end; ++h) {
                // Phase 1: logits via dequantized K (row-wise, layout
                // matches).
                for (std::size_t t = 0; t < tokens; ++t) {
                    double acc = 0;
                    for (std::size_t g = 0; g < groups_per_head; ++g)
                        acc += static_cast<double>(simd::dot(
                            ctx[0].dequant(t, h * groups_per_head + g),
                            q.data() + h * channels + g * vec, vec));
                    logits[t] = static_cast<float>(acc * inv_sqrt_d);
                }
                softmaxInPlace(logits);

                // Phase 2: V accumulation (column-wise: the mismatched
                // layout).
                for (std::size_t t = 0; t < tokens; ++t)
                    for (std::size_t g = 0; g < groups_per_head; ++g)
                        simd::fmaInto(
                            result.output.data() + h * channels + g * vec,
                            ctx[1].dequant(t, h * groups_per_head + g),
                            logits[t], vec);
            }
        });
    return result;
}

} // namespace vqllm::kernels
