#include "serving/sim_core.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqllm::serving {

namespace {

/** Per-device KV bytes per token: each device stores its KV-head
 *  share of every cached token, so its bytes per token are that
 *  share's slice of the scheme's full-token footprint. */
std::vector<std::uint64_t>
deviceBytesPerToken(std::size_t degree, std::uint64_t total_bpt,
                    std::size_t kv_heads)
{
    std::vector<std::uint64_t> bpt(degree);
    for (std::size_t i = 0; i < degree; ++i)
        bpt[i] = std::max<std::uint64_t>(
            llm::kvHeadShareBytes(total_bpt, kv_heads, degree, i), 1);
    return bpt;
}

} // namespace

SimulatorCore::SimulatorCore(const SimulatorConfig &cfg)
    : cfg_(cfg), model_(cfg_.modelConfig()),
      degree_(static_cast<std::size_t>(cfg_.tp.degree)),
      kv_scheme_(cfg_.kvScheme()),
      total_bpt_(std::max<std::uint64_t>(
          llm::kvSchemeBytesPerToken(model_, kv_scheme_), 1)),
      kv_capacity_per_device_(kvCapacityPerDeviceBytes(cfg_)),
      kv_capacity_bytes_(kv_capacity_per_device_ * degree_),
      device_bpt_(deviceBytesPerToken(degree_, total_bpt_,
                                      model_.kvHeads())),
      // Every device holds the same blocks, and device 0 (the largest
      // KV-head share under llm::shardSplit) affords the fewest, so
      // its bytes per token size the one table.
      pool_({.capacity_bytes = kv_capacity_per_device_,
             .block_tokens = cfg_.kv_block_tokens,
             .bytes_per_token = device_bpt_[0]}),
      scheduler_(cfg_.scheduler, pool_),
      residency_(cfg_.codebook_slots),
      metrics_(cfg_.metrics),
      trace_rec_(cfg_.trace)
{
    if (cfg_.prefix_cache) {
        prefix_cache_.emplace(pool_, cfg_.prefix_capacity_blocks);
        scheduler_.setPrefixCache(&*prefix_cache_);
    }
    // Private per-run engine unless one is injected: reports then
    // describe exactly this run, and concurrent runMany sims never
    // contend on one cache.  TP shards are identical GPUs compiling
    // identical shard shapes, so all shards price through one engine.
    eng_ = cfg_.engine != nullptr ? cfg_.engine
                                  : &local_engine_.emplace(cfg_.gpuSpec());
    plan_stats_before_ = eng_->stats();
    pricer_.emplace(*eng_, model_, cfg_.scheme, kv_scheme_, cfg_.tp);
    has_codebooks_ = pricer_->codebookGroupBytes() > 0;

    // ---- Observability hookup.  Every instrumentation site guards on
    // its own nullptr, and the report is bit-identical with or without
    // a recorder/registry.
    if (trace_rec_ != nullptr) {
        trace_rec_->setNow(0);
        trace_rec_->nameTrack(0, "scheduler");
        for (std::size_t s = 0; s < degree_; ++s)
            trace_rec_->nameTrack(1 + static_cast<int>(s),
                                  "shard " + std::to_string(s));
        scheduler_.setTrace(trace_rec_);
        pool_.setTrace(trace_rec_);
        eng_->setTrace(trace_rec_);
        if (prefix_cache_)
            prefix_cache_->setTrace(trace_rec_);
    }
    if (cfg_.metrics != nullptr) {
        h_iter_us_ =
            &cfg_.metrics->histogram("serving.iteration.duration_us");
        h_decode_batch_ =
            &cfg_.metrics->histogram("serving.iteration.decode_batch");
    }
}

void
SimulatorCore::enqueue(Request *r)
{
    auto pos = std::upper_bound(
        pending_.begin(), pending_.end(), r,
        [](const Request *a, const Request *b) {
            if (a->arrival_us != b->arrival_us)
                return a->arrival_us < b->arrival_us;
            return a->id < b->id;
        });
    pending_.insert(pos, r);
}

double
SimulatorCore::nextEventUs() const
{
    if (!idle())
        return now_us_;
    if (!pending_.empty())
        return std::max(now_us_, pending_.front()->arrival_us);
    return std::numeric_limits<double>::infinity();
}

void
SimulatorCore::deliverDue()
{
    while (!pending_.empty() && pending_.front()->arrival_us <= now_us_) {
        submit(pending_.front());
        pending_.pop_front();
    }
}

void
SimulatorCore::advance()
{
    deliverDue();
    if (idle()) {
        if (pending_.empty())
            return;
        setNow(std::max(now_us_, pending_.front()->arrival_us));
        deliverDue();
        if (idle())
            return; // everything due was rejected
    }
    step();
}

void
SimulatorCore::setNow(double us)
{
    vqllm_assert(us >= now_us_,
                 "simulated clock must not move backwards");
    now_us_ = us;
    if (trace_rec_ != nullptr)
        trace_rec_->setNow(us);
}

void
SimulatorCore::submit(Request *r)
{
    if (trace_rec_ != nullptr)
        trace_rec_->setNow(now_us_);
    scheduler_.submit(r);
}

void
SimulatorCore::step()
{
    if (trace_rec_ != nullptr)
        trace_rec_->setNow(now_us_);

    const Scheduler::Iteration &iter = scheduler_.next();
    if (iter.empty()) {
        // Waiting head cannot be admitted until running sequences
        // finish; with nothing running this cannot happen (submit
        // rejects requests that can never fit).
        vqllm_assert(scheduler_.runningCount() > 0,
                     "scheduler stalled with empty running set");
        // No decode and no admission: unreachable by construction
        // (decode always schedules running sequences), but guard
        // against infinite loops.
        vqllm_panic("scheduler returned an empty iteration");
    }
    ++iterations_;
    peak_running_ = std::max<std::uint64_t>(peak_running_,
                                            scheduler_.runningCount());
    for (std::size_t k = 0; k < iter.preempted; ++k)
        metrics_.recordPreemption();

    // ---- Price the iteration (mixed prefill slices + decode in one
    // launch set).
    double iter_us = pricer_->iterationUs(iter);
    if (has_codebooks_) {
        groups_.clear();
        for (const auto &chunk : iter.prefill)
            groups_.push_back(chunk.req->codebook_group);
        for (const Request *r : iter.decode)
            groups_.push_back(r->codebook_group);
        auto touch = residency_.touchBatch(groups_);
        iter_us += pricer_->codebookMissUs(touch.misses);
    }

    if (trace_rec_ != nullptr) {
        // The iteration's four price components tile [now, now +
        // iter_us] as consecutive spans: prefill, decode, comm,
        // codebook upload.  Detail spans (per chunk, per shard) nest
        // inside their tiles at the pricer's own memoized prices;
        // category sums therefore reproduce the report's busy-time
        // breakdown.
        const IterationPricer::Breakdown &bd = pricer_->lastBreakdown();
        trace_rec_->span(
            "iteration", "iteration", 0, now_us_, iter_us,
            {{"prefill_chunks",
              static_cast<double>(iter.prefill.size())},
             {"decode_batch", static_cast<double>(iter.decode.size())}});
        double t = now_us_;
        if (bd.prefill_us > 0) {
            trace_rec_->span(
                "prefill", "prefill", 0, t, bd.prefill_us,
                {{"chunks", static_cast<double>(iter.prefill.size())}});
            double ct = t;
            for (const Scheduler::PrefillChunk &c : iter.prefill) {
                const double chunk_us =
                    pricer_->prefillChunkUs(c.tokens, c.context);
                trace_rec_->span(
                    "prefill_chunk", "prefill_detail", 0, ct, chunk_us,
                    {{"req", static_cast<double>(c.req->id)},
                     {"tokens", static_cast<double>(c.tokens)},
                     {"context", static_cast<double>(c.context)},
                     {"last", c.last ? 1.0 : 0.0}});
                ct += chunk_us;
            }
            t += bd.prefill_us;
        }
        if (bd.decode_us > 0) {
            trace_rec_->span(
                "decode", "decode", 0, t, bd.decode_us,
                {{"batch", static_cast<double>(iter.decode.size())}});
            // Every shard runs the critical shard's step in lockstep.
            for (std::size_t s = 0; s < degree_; ++s)
                trace_rec_->span("decode_compute", "shard_compute",
                                 1 + static_cast<int>(s), t,
                                 bd.decode_us);
            t += bd.decode_us;
        }
        if (bd.comm_us > 0) {
            trace_rec_->span("all_reduce", "comm", 0, t, bd.comm_us);
            const double decode_comm_us =
                iter.decode.empty() ? 0
                                    : pricer_->commUs(iter.decode.size());
            if (decode_comm_us > 0)
                for (std::size_t s = 0; s < degree_; ++s)
                    trace_rec_->span("all_reduce", "shard_comm",
                                     1 + static_cast<int>(s), t,
                                     decode_comm_us);
            t += bd.comm_us;
        }
        if (bd.codebook_upload_us > 0)
            trace_rec_->span("codebook_upload", "codebook", 0, t,
                             bd.codebook_upload_us);
    }
    if (h_iter_us_ != nullptr) {
        h_iter_us_->record(iter_us);
        h_decode_batch_->record(static_cast<double>(iter.decode.size()));
    }

    now_us_ += iter_us;
    busy_us_ += iter_us;

    // ---- Emit tokens and retire finished requests.
    retiring_.clear();
    for (const auto &chunk : iter.prefill) {
        metrics_.recordPrefillTokens(chunk.tokens);
        if (!chunk.last)
            continue; // partial slice: no token emitted yet
        Request *r = chunk.req;
        if (r->generated == 0 && r->first_token_us < 0) {
            // The slice completing a fresh prefill emits the request's
            // first output token.  An imported sequence recomputing
            // after preemption already produced its first token on the
            // prefill replica (first_token_us >= 0), so its recompute
            // stall lands in TBT below.
            r->first_token_us = now_us_;
            metrics_.recordTtft(now_us_ - r->arrival_us);
        } else {
            // Recompute after preemption re-runs the forward pass over
            // the full context and emits the next token; the stall
            // since the last token lands in this TBT sample.
            metrics_.recordTbt(now_us_ - r->last_token_us);
        }
        ++r->generated;
        r->last_token_us = now_us_;
        metrics_.recordDecodeTokens(1);
        if (r->done())
            retiring_.push_back(r);
    }
    for (Request *r : iter.decode) {
        ++r->generated;
        metrics_.recordTbt(now_us_ - r->last_token_us);
        r->last_token_us = now_us_;
        metrics_.recordDecodeTokens(1);
        if (r->done())
            retiring_.push_back(r);
    }
    for (Request *r : retiring_) {
        r->finish_us = now_us_;
        metrics_.recordE2e(now_us_ - r->arrival_us);
        scheduler_.retire(r);
        ++completed_;
        finished_.push_back(r);
    }

    // ---- KV accounting invariant: every resident sequence's pool
    // occupancy matches its bookkeeping, and a fully-prefilled
    // sequence holds exactly its context — the prefill, re-prefill and
    // imported-admission paths must never drift apart by a token.
    std::size_t running_tokens = 0;
    for (const Request *r : scheduler_.running()) {
        vqllm_assert(pool_.seqTokens(r->id) == r->prefilled_tokens,
                     "KV pool tokens diverged from request "
                     "bookkeeping for request ", r->id);
        if (r->prefill_complete)
            vqllm_assert(r->prefilled_tokens == r->contextTokens(),
                         "prefilled sequence does not hold its "
                         "context for request ", r->id);
        running_tokens += r->prefilled_tokens;
    }
    // Pool-level conservation.  Without sharing, stored tokens equal
    // the per-sequence sum exactly.  With the prefix cache, shared
    // blocks store their tokens once in the pool but once per owner in
    // the sum, so the pool view is bounded by the sum plus the
    // cache-held tokens — summing seqTokens over sequences would
    // double-count shared prefixes.
    if (!prefix_cache_)
        vqllm_assert(pool_.storedTokens() == running_tokens,
                     "pool stored tokens diverged from the running set");
    else
        vqllm_assert(pool_.storedTokens() <=
                         running_tokens + prefix_cache_->cachedTokens(),
                     "pool stored tokens exceed running set plus cached "
                     "prefixes");
}

std::uint64_t
SimulatorCore::queuedPrefillTokens() const
{
    // The undelivered backlog is load the scheduler cannot see yet;
    // without it a router would dogpile one replica between its steps.
    std::uint64_t tokens = 0;
    for (const Request *r : pending_)
        if (!r->kv_imported)
            tokens += r->contextTokens();
    for (const Request *r : scheduler_.waiting())
        if (!r->kv_imported)
            tokens += r->contextTokens();
    for (const Request *r : scheduler_.running())
        if (!r->prefill_complete)
            tokens += r->contextTokens() - r->prefilled_tokens;
    return tokens;
}

std::uint64_t
SimulatorCore::queuedDecodeTokens() const
{
    std::uint64_t tokens = 0;
    auto remaining = [](const Request *r) {
        return r->max_new_tokens -
               std::min(r->generated, r->max_new_tokens);
    };
    for (const Request *r : pending_)
        tokens += remaining(r);
    for (const Request *r : scheduler_.waiting())
        tokens += remaining(r);
    for (const Request *r : scheduler_.running())
        tokens += remaining(r);
    return tokens;
}

std::uint64_t
SimulatorCore::processedTokens() const
{
    return metrics_.prefillTokens() + metrics_.decodeTokens();
}

std::vector<Request *>
SimulatorCore::takeFinished()
{
    return std::exchange(finished_, {});
}

ServingReport
SimulatorCore::finalize()
{
    vqllm_assert(!finalized_, "SimulatorCore::finalize called twice");
    finalized_ = true;

    ServingReport report;
    report.ttft = summarize(metrics_.ttftSamples());
    report.tbt = summarize(metrics_.tbtSamples());
    report.e2e = summarize(metrics_.e2eSamples());
    report.sim_time_us = now_us_;
    report.busy_time_us = busy_us_;
    report.utilization = now_us_ > 0 ? busy_us_ / now_us_ : 0;
    report.tokens_per_sec =
        busy_us_ > 0 ? static_cast<double>(metrics_.decodeTokens()) /
                           (busy_us_ / 1e6)
                     : 0;
    report.completed_requests = completed_;
    report.rejected_requests = scheduler_.rejectedCount();
    report.preemptions = metrics_.preemptions();
    report.decode_tokens = metrics_.decodeTokens();
    report.prefill_tokens = metrics_.prefillTokens();
    report.iterations = iterations_;
    report.kv_capacity_bytes = kv_capacity_bytes_;
    report.codebook_hit_rate =
        has_codebooks_ ? residency_.stats().hitRate() : 1.0;
    // Engine lookups this run made: one per memo slot the pricer
    // filled with a VQ price (repeats are answered by the memo).
    const compiler::CacheStats plan_stats = eng_->stats();
    report.plan_cache_hits = plan_stats.hits - plan_stats_before_.hits;
    report.plan_cache_misses =
        plan_stats.misses - plan_stats_before_.misses;
    report.plan_cache_evictions =
        plan_stats.evictions - plan_stats_before_.evictions;
    report.prefix_cache_enabled = prefix_cache_.has_value();
    if (prefix_cache_) {
        const PrefixCacheStats &pc = prefix_cache_->stats();
        report.prefix_lookups = pc.lookups;
        report.prefix_hits = pc.hits;
        report.prefix_matched_tokens = pc.matched_tokens;
        report.prefix_evicted_blocks = pc.evicted_nodes;
        report.prefix_cached_blocks = prefix_cache_->cachedBlocks();
        report.cow_forks = pool_.stats().cow_forks;
        // Fraction of prefill demand served from cache: matched tokens
        // over matched plus actually-prefilled tokens.
        std::uint64_t demand = pc.matched_tokens + report.prefill_tokens;
        report.prefix_hit_rate =
            demand > 0 ? static_cast<double>(pc.matched_tokens) /
                             static_cast<double>(demand)
                       : 0.0;
    }
    report.kv_scheme = llm::kvSchemeToken(kv_scheme_);
    report.kv_bytes_per_token = total_bpt_;
    report.kv_capacity_multiplier =
        static_cast<double>(model_.kvCacheBytesFp16(1, 1)) /
        static_cast<double>(total_bpt_);
    report.kv_dequant_us = pricer_->kvDequantUs();
    report.peak_running_seqs = peak_running_;
    report.tp_degree = degree_;
    const IterationPricer::Breakdown breakdown = pricer_->totals();
    report.comm_us = breakdown.comm_us;
    report.comm_fraction =
        busy_us_ > 0 ? breakdown.comm_us / busy_us_ : 0;
    report.prefill_us = breakdown.prefill_us;
    report.decode_us = breakdown.decode_us;
    report.codebook_upload_us = breakdown.codebook_upload_us;
    report.shards.resize(degree_);
    for (std::size_t i = 0; i < degree_; ++i) {
        // Every device holds the table's blocks at its own block size.
        report.shards[i].kv_peak_bytes = pool_.stats().peak_used_blocks *
                                         pool_.config().block_tokens *
                                         device_bpt_[i];
        report.kv_peak_bytes += report.shards[i].kv_peak_bytes;
        report.shards[i].kv_capacity_bytes = kv_capacity_per_device_;
    }

    if (trace_rec_ != nullptr) {
        trace_rec_->setNow(now_us_);
        // Detach the recorder: injected engines outlive this run and
        // may compile concurrently afterwards.
        eng_->setTrace(nullptr);
    }
    if (cfg_.metrics != nullptr) {
        obs::MetricsRegistry &reg = *cfg_.metrics;
        pool_.exportMetrics(reg, "serving.kv");
        residency_.exportMetrics(reg, "serving.codebook");
        eng_->exportMetrics(reg, "compiler.plan_cache");
        if (prefix_cache_) {
            prefix_cache_->exportMetrics(reg, "serving.kv.prefix");
            reg.gauge("serving.kv.prefix.hit_rate")
                .set(report.prefix_hit_rate);
            reg.counter("serving.kv.prefix.cow_forks")
                .add(report.cow_forks);
        }
        reg.gauge("serving.kv.scheme.bytes_per_token")
            .set(static_cast<double>(total_bpt_));
        reg.gauge("serving.kv.scheme.capacity_multiplier")
            .set(report.kv_capacity_multiplier);
        reg.gauge("serving.kv.scheme.dequant_us")
            .set(report.kv_dequant_us);
        reg.gauge("serving.kv.scheme.peak_running_seqs")
            .set(static_cast<double>(peak_running_));
        reg.counter("serving.requests.completed").add(completed_);
        reg.counter("serving.requests.rejected")
            .add(report.rejected_requests);
        reg.counter("serving.iterations").add(iterations_);
        reg.gauge("serving.sim_time_us").set(report.sim_time_us);
        reg.gauge("serving.busy_time_us").set(report.busy_time_us);
        reg.gauge("serving.busy.prefill_us").set(report.prefill_us);
        reg.gauge("serving.busy.decode_us").set(report.decode_us);
        reg.gauge("serving.busy.comm_us").set(report.comm_us);
        reg.gauge("serving.busy.codebook_upload_us")
            .set(report.codebook_upload_us);
        reg.gauge("serving.utilization").set(report.utilization);
        reg.gauge("serving.tokens_per_sec").set(report.tokens_per_sec);
        reg.gauge("serving.tp_degree")
            .set(static_cast<double>(degree_));
    }

    // ---- Refcount leak check: with the trace drained and the cache's
    // references dropped, every block must have returned to the pools.
    if (prefix_cache_)
        prefix_cache_->clear();
    vqllm_assert(pool_.usedBlocks() == 0,
                 "KV blocks leaked after the trace drained");
    return report;
}

} // namespace vqllm::serving
