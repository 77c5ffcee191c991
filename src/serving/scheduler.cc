#include "serving/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "compiler/engine.h"
#include "llm/ops.h"
#include "obs/trace.h"
#include "serving/prefix_cache.h"

namespace vqllm::serving {

namespace {

/**
 * Largest prompt slice processable given the chunk budget and `avail`
 * free KV token slots.  A slice that completes the prefill needs one
 * extra slot for the token it emits; when that slot cannot be afforded
 * the slice shrinks and the prefill completes in a later iteration.
 */
std::size_t
sliceTokens(std::size_t remaining, std::size_t budget, std::size_t avail)
{
    std::size_t take = std::min(budget, remaining);
    std::size_t need = take + (take == remaining ? 1 : 0);
    if (need <= avail)
        return take;
    if (avail == 0)
        return 0;
    take = std::min(take, avail);
    if (take == remaining)
        --take;
    return take;
}

/** Host->device bandwidth of codebook-group uploads, GB/s. */
constexpr double kUploadGbps = 32.0;
/** Fixed per-upload latency (launch + synchronization), us. */
constexpr double kUploadFixedUs = 10.0;

} // namespace

Scheduler::Scheduler(const SchedulerConfig &cfg, KvBlockPool &pool)
    : cfg_(cfg), pool_(pool)
{
    vqllm_assert(cfg_.max_batch > 0, "max_batch must be positive");
}

void
Scheduler::submit(Request *r)
{
    // Peak residency is the full context plus, for a request with no
    // decode budget, the slot of the token its prefill emits.
    std::size_t peak =
        r->prompt_len + std::max<std::size_t>(r->max_new_tokens, 1);
    if (!pool_.canEverFit(peak)) {
        r->state = RequestState::Rejected;
        ++rejected_;
        if (trace_ != nullptr)
            trace_->instant(
                "reject", "sched", 0, trace_->now(),
                {{"req", static_cast<double>(r->id)},
                 {"peak_tokens", static_cast<double>(peak)}});
        return;
    }
    r->state = RequestState::Waiting;
    r->prefilled_tokens = 0;
    r->prefill_complete = false;
    requeue(r);
}

void
Scheduler::requeue(Request *r)
{
    // Keep the waiting queue in policy admission order by insertion.
    // Admission keys are static while a request waits — arrival,
    // priority, and the EDF deadline (arrival + TTFT deadline before
    // the first token, last_token + TBT deadline after) only change
    // while a request runs — so the order never goes stale between
    // insertions.  admitBefore is total (id tiebreak), making the
    // position, and thus batch formation, deterministic.
    auto pos = std::lower_bound(waiting_.begin(), waiting_.end(), r,
                                [kind = cfg_.policy](const Request *a,
                                                     const Request *b) {
                                    return admitBefore(kind, *a, *b);
                                });
    waiting_.insert(pos, r);
}

Request *
Scheduler::preemptVictim(Iteration &it)
{
    // The victim is the running request the policy would admit last,
    // among those that have not decoded this iteration — a sequence
    // whose token was already scheduled must keep its blocks until the
    // iteration lands.
    std::size_t v = running_.size();
    for (std::size_t j = 0; j < running_.size(); ++j) {
        Request *c = running_[j];
        if (std::find(it.decode.begin(), it.decode.end(), c) !=
            it.decode.end())
            continue;
        if (v == running_.size() ||
            admitBefore(cfg_.policy, *running_[v], *c))
            v = j;
    }
    vqllm_assert(v < running_.size(), "no preemption victim available");
    Request *r = running_[v];
    running_.erase(running_.begin() + v);
    if (trace_ != nullptr)
        trace_->instant(
            "preempt", "sched", 0, trace_->now(),
            {{"req", static_cast<double>(r->id)},
             {"held_tokens",
              static_cast<double>(r->prefilled_tokens)}});
    pool_.freeSequence(r->id);
    if (prefix_cache_ != nullptr)
        prefix_cache_->onRelease(r->id);
    r->state = RequestState::Preempted;
    r->prefilled_tokens = 0;
    r->prefill_complete = false;
    ++r->preemptions;
    requeue(r);
    ++it.preempted;
    return r;
}

void
Scheduler::sortRunning(bool prefilled)
{
    order_.clear();
    for (Request *r : running_)
        if (r->prefill_complete == prefilled)
            order_.push_back(r);
    // Insertion sort: no buffer to allocate, and running_ keeps
    // admission order, so the view is nearly sorted already.
    // admitBefore is a strict total order (it ends in an id
    // tiebreak), so any correct sort gives this one sequence.
    for (std::size_t i = 1; i < order_.size(); ++i) {
        Request *r = order_[i];
        std::size_t j = i;
        for (; j > 0 && admitBefore(cfg_.policy, *r, *order_[j - 1]); --j)
            order_[j] = order_[j - 1];
        order_[j] = r;
    }
}

void
Scheduler::decodeStep(Iteration &it)
{
    // One token for every fully-prefilled running sequence.  A sequence
    // that cannot take a block evicts the policy victim until its
    // append succeeds or it preempts itself.  Decoded sequences are
    // eviction-protected for the rest of the iteration, so visit them
    // in admission order (the reverse of eviction order): when
    // pressure hits, the not-yet-decoded tail still holds the policy's
    // preferred victims — a high-priority sequence must never
    // self-preempt because a protected low-priority one decoded ahead
    // of it.
    sortRunning(true);
    for (Request *r : order_) {
        if (r->state != RequestState::Running)
            continue; // fell victim to an earlier sequence's pressure
        bool ok = pool_.appendToken(r->id);
        while (!ok && preemptVictim(it) != r)
            ok = pool_.appendToken(r->id);
        if (!ok)
            continue; // r preempted itself
        ++r->prefilled_tokens;
        it.decode.push_back(r);
    }
}

void
Scheduler::prefillChunks(Iteration &it)
{
    std::size_t budget = cfg_.chunk_tokens;

    // ---- Continue in-flight (partially prefilled) sequences in
    // policy admission order.
    sortRunning(false);
    for (Request *r : order_) {
        if (budget == 0)
            break;
        std::size_t remaining = r->contextTokens() - r->prefilled_tokens;
        std::size_t take = sliceTokens(remaining, budget,
                                       pool_.extendableTokens(r->id));
        if (take == 0)
            continue; // blocked on KV; nextChunked may evict for it
        bool last = take == remaining;
        bool ok = pool_.extendSequence(r->id, take + (last ? 1 : 0));
        vqllm_assert(ok, "sized prefill slice must extend");
        it.prefill.push_back({r, take, r->prefilled_tokens, last});
        r->prefilled_tokens += take + (last ? 1 : 0);
        r->prefill_complete = last;
        budget -= take;
        if (prefix_cache_ != nullptr)
            prefix_cache_->onPrefillAdvance(*r);
    }

    // ---- Admit new requests in policy order.  Stop at the first that
    // cannot take a slice (no hole-skipping).
    while (budget > 0 && !waiting_.empty() &&
           running_.size() < cfg_.max_batch) {
        Request *r = waiting_.front();
        if (r->kv_imported)
            break; // KV-blocked import head; admitImported retries it
        std::size_t target = r->contextTokens();
        PrefixCache::Match m;
        if (prefix_cache_ != nullptr)
            m = prefix_cache_->match(*r);
        std::size_t take;
        bool last;
        if (m.tokens > 0) {
            // Prefix hit: map the matched blocks in as shared blocks
            // and prefill only the unmatched suffix.  The slice starts
            // against `m.tokens` of resident context, so the pricer
            // charges the suffix alone.
            prefix_cache_->attach(*r, m);
            std::size_t remaining = target - m.tokens;
            take = sliceTokens(remaining, budget,
                               pool_.extendableTokens(r->id));
            if (take == 0) {
                // Not admissible after all (KV pressure on the
                // suffix); undo so the hit statistics stay honest and
                // the request re-matches when capacity frees up.
                prefix_cache_->rollbackAttach(*r, m);
                break;
            }
            last = take == remaining;
            bool ok = pool_.extendSequence(r->id, take + (last ? 1 : 0));
            vqllm_assert(ok, "sized prefill slice must extend");
        } else {
            take = sliceTokens(target, budget, pool_.freeTokens());
            if (take == 0)
                break;
            last = take == target;
            bool ok = pool_.allocSequence(r->id, take + (last ? 1 : 0));
            vqllm_assert(ok, "sized prefill slice must allocate");
        }
        waiting_.erase(waiting_.begin());
        r->state = RequestState::Running;
        r->prefilled_tokens = m.tokens + take + (last ? 1 : 0);
        r->prefill_complete = last;
        running_.push_back(r);
        it.prefill.push_back({r, take, m.tokens, last});
        budget -= take;
        if (prefix_cache_ != nullptr)
            prefix_cache_->onPrefillAdvance(*r);
    }
}

void
Scheduler::nextUnchunked(Iteration &it)
{
    // ---- Prefill-prioritized admission in policy order.  Stop at the
    // first request that does not fit (no hole-skipping).
    std::size_t prefill_tokens = 0;
    while (!waiting_.empty() && running_.size() < cfg_.max_batch) {
        Request *r = waiting_.front();
        if (r->kv_imported)
            break; // KV-blocked import head; admitImported retries it
        std::size_t ctx = r->contextTokens();
        PrefixCache::Match m;
        if (prefix_cache_ != nullptr)
            m = prefix_cache_->match(*r);
        // The iteration's prompt-token budget covers what is actually
        // prefilled: the unmatched suffix.
        std::size_t slice = ctx - m.tokens;
        if (!it.prefill.empty() &&
            prefill_tokens + slice > cfg_.max_prefill_tokens)
            break;
        if (m.tokens > 0) {
            // Prefix hit: shared blocks for the match, fresh blocks
            // for the suffix plus the emitted token's slot.
            prefix_cache_->attach(*r, m);
            if (!pool_.extendSequence(r->id, slice + 1)) {
                prefix_cache_->rollbackAttach(*r, m);
                break;
            }
        } else if (!pool_.allocSequence(r->id, ctx + 1)) {
            // Whole-prompt slice plus the slot of the token it emits.
            break;
        }
        waiting_.erase(waiting_.begin());
        r->state = RequestState::Running;
        r->prefilled_tokens = ctx + 1;
        r->prefill_complete = true;
        running_.push_back(r);
        it.prefill.push_back({r, slice, m.tokens, true});
        prefill_tokens += slice;
        if (prefix_cache_ != nullptr)
            prefix_cache_->onPrefillAdvance(*r);
    }
    if (it.prefill.empty())
        decodeStep(it);
}

void
Scheduler::nextChunked(Iteration &it)
{
    decodeStep(it);
    for (;;) {
        prefillChunks(it);
        if (!it.empty() || running_.empty())
            return;
        // Every running sequence is mid-prefill and blocked on KV
        // capacity: evict the policy victim and retry, so the oldest
        // prefill can make progress.
        preemptVictim(it);
    }
}

void
Scheduler::admitImported()
{
    // Admit requests whose KV cache arrived from another replica (a
    // fleet prefill→decode handoff): the full context maps in with no
    // prefill compute and the sequence is decode-eligible immediately.
    // Same no-hole-skipping discipline as prefill admission — only the
    // policy head admits, and a head blocked on KV capacity waits for
    // decode pressure to free blocks (or for preemption to strike).
    while (!waiting_.empty() && running_.size() < cfg_.max_batch) {
        Request *r = waiting_.front();
        if (!r->kv_imported)
            break;
        std::size_t ctx = r->contextTokens();
        if (!pool_.allocSequence(r->id, ctx))
            break; // blocked on KV; retiring sequences free blocks
        waiting_.erase(waiting_.begin());
        r->state = RequestState::Running;
        r->prefilled_tokens = ctx;
        r->prefill_complete = true;
        // Cleared so a later preemption recomputes locally like any
        // other sequence instead of waiting for a second import.
        r->kv_imported = false;
        running_.push_back(r);
        if (trace_ != nullptr)
            trace_->instant(
                "kv_import", "sched", 0, trace_->now(),
                {{"req", static_cast<double>(r->id)},
                 {"tokens", static_cast<double>(ctx)}});
    }
}

const Scheduler::Iteration &
Scheduler::next()
{
    iter_.prefill.clear();
    iter_.decode.clear();
    iter_.preempted = 0;
    admitImported();
    if (cfg_.chunk_tokens == 0)
        nextUnchunked(iter_);
    else
        nextChunked(iter_);
    return iter_;
}

void
Scheduler::retire(Request *r)
{
    pool_.freeSequence(r->id);
    if (prefix_cache_ != nullptr)
        prefix_cache_->onRelease(r->id);
    r->state = RequestState::Finished;
    r->prefilled_tokens = 0;
    auto pos = std::find(running_.begin(), running_.end(), r);
    if (pos != running_.end())
        running_.erase(pos);
}

// ---------------------------------------------------------------------
// IterationPricer

IterationPricer::IterationPricer(compiler::Engine &eng,
                                 const llm::LlamaConfig &model,
                                 llm::QuantScheme scheme,
                                 llm::KvScheme kv, const llm::TpConfig &tp)
    : eng_(eng), model_(model), scheme_(scheme), kv_scheme_(kv), tp_(tp)
{
    vqllm_assert(tp_.degree >= 1, "TP degree must be >= 1");
    vqllm_assert(model_.heads % tp_.degree == 0,
                 "heads must divide evenly across TP ranks");
    vqllm_assert(model_.kvHeads() >=
                     static_cast<std::size_t>(tp_.degree),
                 "TP degree exceeds the model's KV heads");
}

double
IterationPricer::prefillChunkUs(std::size_t tokens, std::size_t context)
{
    // Bucket both dimensions for memoization; chunk cost is smooth in
    // slice length and context.  Slices below one bucket get a
    // finer granularity — budget sharing routinely produces small
    // leftover slices, and charging each a whole bucket of phantom
    // tokens would systematically overprice the chunked regime.
    auto bucketTo = [](std::size_t n, std::size_t b) {
        return ((n + b - 1) / b) * b;
    };
    constexpr std::size_t bucket = kSeqBucket;
    constexpr std::size_t fine = bucket / 8;
    tokens = std::max<std::size_t>(tokens, 1);
    // Memo column: fine slices number 1..fine_slots, whole-bucket
    // slices follow them.
    constexpr std::size_t fine_slots = (bucket + fine - 1) / fine;
    std::size_t slice, col;
    if (tokens < bucket) {
        slice = bucketTo(tokens, fine);
        col = slice / fine;
    } else {
        slice = bucketTo(tokens, bucket);
        col = fine_slots + slice / bucket;
    }
    std::size_t ctx = context == 0 ? 0 : bucketTo(context, bucket);
    return prefill_memo_.get(ctx / bucket, col, [&] {
        return llm::estimateChunkedPrefillUs(eng_.spec(), model_, slice,
                                             ctx, tp_);
    });
}

double
IterationPricer::commUs(std::size_t rows) const
{
    return llm::layerAllReduceUs(tp_, rows, model_.hidden) *
           static_cast<double>(model_.layers);
}

double
IterationPricer::decodeUs(const std::vector<Request *> &batch)
{
    if (batch.empty())
        return 0;

    // Attention over a ragged batch: group sequences into context
    // buckets and price one homogeneous sub-launch per bucket
    // (flash-decoding style), in ascending bucket order: a scan of the
    // counts between the lowest and highest occupied bucket.
    std::size_t lo = std::numeric_limits<std::size_t>::max(), hi = 0;
    for (const Request *r : batch) {
        std::size_t ctx = std::max<std::size_t>(r->contextTokens(), 1);
        std::size_t bucket = (ctx + kSeqBucket - 1) / kSeqBucket;
        if (bucket >= bucket_counts_.size())
            bucket_counts_.resize(bucket + 1, 0);
        ++bucket_counts_[bucket];
        lo = std::min(lo, bucket);
        hi = std::max(hi, bucket);
    }

    // The critical shard (llm::DecodeStep) sets the step latency: the
    // shards launch in lockstep, and every model splits evenly at
    // every degree the simulator accepts, so no shard is slower.
    const std::size_t n = batch.size();
    llm::DecodeStep step;
    for (std::size_t bucket = lo; bucket <= hi; ++bucket) {
        std::size_t count = bucket_counts_[bucket];
        if (count == 0)
            continue;
        step.attn_us += attn_memo_.get(bucket, count, [&] {
            return llm::decodeAttnUs(eng_, model_, kv_scheme_, tp_, count,
                                     bucket * kSeqBucket);
        });
    }
    step.linear_us = linear_memo_.get(0, n, [&] {
        return llm::decodeLinearUs(eng_, model_, scheme_, tp_, n);
    });
    step.elementwise_us = elem_memo_.get(0, n, [&] {
        return llm::elementwiseLayerLatencyUs(eng_.spec(), n,
                                              model_.hidden);
    });
    // Two ring all-reduces per layer gather the attention output and
    // reduce the MLP partials (0 at degree 1).
    step.comm_us = llm::layerAllReduceUs(tp_, n, model_.hidden);

    // KV-dequant attribution: what the same bucketed attention
    // sub-launches would cost with uncompressed FP16 KV (closed form,
    // never an engine lookup).  Pure accounting — the time itself is
    // already inside decode_us.
    const double layers = static_cast<double>(model_.layers);
    if (kv_scheme_ != llm::KvScheme::FP16) {
        double fp16_us = 0;
        for (std::size_t bucket = lo; bucket <= hi; ++bucket) {
            std::size_t count = bucket_counts_[bucket];
            if (count == 0)
                continue;
            fp16_us += fp16_attn_memo_.get(bucket, count, [&] {
                return llm::decodeAttnUs(eng_, model_, llm::KvScheme::FP16,
                                         tp_, count, bucket * kSeqBucket);
            });
        }
        kv_dequant_us_ += (step.attn_us - fp16_us) * layers;
    }
    std::fill(bucket_counts_.begin() + lo, bucket_counts_.begin() + hi + 1,
              0);

    const double compute_us = step.computeUs() * layers;
    const double comm_us = step.comm_us * layers;
    last_breakdown_.decode_us += compute_us;
    last_breakdown_.comm_us += comm_us;
    totals_.decode_us += compute_us;
    totals_.comm_us += comm_us;
    return step.stepUs(layers);
}

double
IterationPricer::iterationUs(const Scheduler::Iteration &it)
{
    // One serialized launch set: every prefill slice's GEMMs plus the
    // decode batch's bucketed attention sub-launches, plus (degree > 1)
    // each slice's per-layer collectives.
    last_breakdown_ = Breakdown{};
    double us = 0;
    for (const auto &chunk : it.prefill) {
        double chunk_us = prefillChunkUs(chunk.tokens, chunk.context);
        us += chunk_us;
        last_breakdown_.prefill_us += chunk_us;
        totals_.prefill_us += chunk_us;
        double comm_us = commUs(chunk.tokens);
        last_breakdown_.comm_us += comm_us;
        totals_.comm_us += comm_us;
        us += comm_us;
    }
    if (!it.decode.empty())
        us += decodeUs(it.decode);
    return us;
}

std::uint64_t
IterationPricer::codebookGroupBytes() const
{
    if (kv_scheme_ != llm::KvScheme::VQ4 &&
        kv_scheme_ != llm::KvScheme::VQ2)
        return 0;
    const vq::VQConfig kv_cfg = llm::kvSchemeVqConfig(kv_scheme_);
    // Per-channel-group scope: one codebook per vector_size channels of
    // the flattened KV heads, per layer, for K and V.
    std::uint64_t channels = model_.kvHeads() * model_.head_dim;
    std::uint64_t books_per_layer =
        2 * ((channels + kv_cfg.vector_size - 1) / kv_cfg.vector_size);
    return books_per_layer * model_.layers * kv_cfg.codebookBytes();
}

double
IterationPricer::codebookMissUs(std::size_t misses)
{
    if (misses == 0)
        return 0;
    std::uint64_t bytes = codebookGroupBytes();
    if (bytes == 0)
        return 0;
    // Each device uploads only its KV-head shard and the uploads overlap
    // across devices, so the serialized penalty is the critical
    // (widest) shard's share of the group (all of it at degree 1).
    bytes = llm::kvHeadShareBytes(bytes, model_.kvHeads(),
                                  static_cast<std::size_t>(tp_.degree), 0);
    double per_upload_us =
        static_cast<double>(bytes) / (kUploadGbps * 1e9) * 1e6 +
        kUploadFixedUs;
    double upload_us = per_upload_us * static_cast<double>(misses);
    last_breakdown_.codebook_upload_us += upload_us;
    totals_.codebook_upload_us += upload_us;
    return upload_us;
}

} // namespace vqllm::serving
