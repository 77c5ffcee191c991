/**
 * @file
 * Request model and synthetic serving workloads.
 *
 * A serving simulation consumes a finite trace of requests: Poisson
 * arrivals over a wall-clock window with log-normally distributed prompt
 * and generation lengths, the shape reported for production LLM traffic.
 * Each request also names a *codebook group* — the set of VQ codebooks
 * its KV cache was quantized with (per-tenant / per-adapter
 * codebooks).  Group popularity is Zipf-distributed so
 * a small residency cache of hot groups captures most of the batch.
 *
 * All sampling is driven by common/rng.h: one seed reproduces one trace.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vqllm::serving {

/** Default SLO deadlines shared by Request and WorkloadConfig, so
 *  hand-constructed requests and generated traces agree. */
inline constexpr double kDefaultTtftDeadlineUs = 1.5e6;
inline constexpr double kDefaultTbtDeadlineUs = 200e3;

/** Lifecycle of a request inside the simulator. */
enum class RequestState {
    Waiting,   ///< arrived, not yet scheduled
    Running,   ///< prefilled; decoding one token per iteration
    Preempted, ///< KV blocks reclaimed; awaiting re-prefill (recompute)
    Finished,  ///< reached max_new_tokens
    Rejected,  ///< context can never fit in the KV pool
};

/** One inference request plus its simulation bookkeeping. */
struct Request
{
    std::uint64_t id = 0;
    /** Arrival timestamp, microseconds since trace start. */
    double arrival_us = 0;
    std::size_t prompt_len = 0;
    std::size_t max_new_tokens = 0;
    /** Codebook group the request's KV codebooks belong to. */
    std::uint64_t codebook_group = 0;
    /** Scheduling priority (higher = more urgent; PolicyKind::Priority). */
    int priority = 0;
    /** Shared-prefix group: requests with the same group open with the
     *  same prefix_tokens-long prompt prefix (a tenant's system
     *  prompt).  -1 = no shared prefix (prefix cache skips it). */
    std::int64_t prefix_group = -1;
    /** Leading prompt tokens shared by the prefix group (counted
     *  inside prompt_len). */
    std::size_t prefix_tokens = 0;
    /** SLO deadline for the first token, us after arrival (EDF). */
    double ttft_deadline_us = kDefaultTtftDeadlineUs;
    /** SLO deadline between consecutive tokens, us (EDF). */
    double tbt_deadline_us = kDefaultTbtDeadlineUs;

    // ---- mutable simulation state ----
    RequestState state = RequestState::Waiting;
    /** Decode tokens produced so far. */
    std::size_t generated = 0;
    /** KV tokens materialized for the current residency (mirrors
     *  KvBlockPool::seqTokens; 0 while not resident).  During chunked
     *  prefill this advances one chunk at a time. */
    std::size_t prefilled_tokens = 0;
    /** True once the current (re)prefill ran to completion and the
     *  request is decode-eligible.  Cleared on preemption. */
    bool prefill_complete = false;
    /** Timestamp of the first output token (-1 until prefilled). */
    double first_token_us = -1;
    /** Timestamp of the most recent output token. */
    double last_token_us = -1;
    /** Completion timestamp (-1 until finished). */
    double finish_us = -1;
    /** Times this request lost its KV blocks to capacity pressure. */
    std::size_t preemptions = 0;
    /**
     * The sequence's KV cache arrives from another replica (a fleet
     * prefill→decode handoff) instead of being prefilled locally: the
     * scheduler maps the full context in without prefill compute and
     * the request enters decode directly.  Cleared on admission, so a
     * later preemption recomputes locally like any other sequence.
     */
    bool kv_imported = false;

    /** @return tokens of KV context currently implied by the request. */
    std::size_t
    contextTokens() const
    {
        return prompt_len + generated;
    }

    /** @return true once all requested tokens were generated. */
    bool
    done() const
    {
        return generated >= max_new_tokens;
    }
};

/**
 * Shape of the arrival process.  Every pattern preserves the mean rate
 * (WorkloadConfig::qps) over full periods; the non-Poisson patterns
 * modulate the instantaneous rate so routers and schedulers face load
 * imbalance, not just steady traffic.
 */
enum class ArrivalPattern {
    /** Homogeneous Poisson process at qps. */
    Poisson,
    /** Square wave: bursts at qps*burst_peak for burst_duty of every
     *  burst_period_s, troughs compensating to preserve the mean. */
    Bursty,
    /** Sinusoidal rate qps*(1 + diurnal_amplitude*sin(2*pi*t/period)) —
     *  a compressed day/night cycle. */
    Diurnal,
};

const char *arrivalPatternName(ArrivalPattern p);
std::optional<ArrivalPattern> parseArrivalPattern(const std::string &s);

/** Parameters of the synthetic workload generator. */
struct WorkloadConfig
{
    /** Mean arrival rate, requests per second (Poisson process). */
    double qps = 4.0;
    /** Arrival window, seconds (requests arrive in [0, duration_s)). */
    double duration_s = 60.0;

    /**
     * Arrival process shape.  Poisson (the default) draws exactly the
     * pre-pattern RNG sequence, so existing traces are bit-identical;
     * the modulated patterns sample candidate arrivals at the pattern's
     * peak rate and thin them against the instantaneous rate.
     */
    ArrivalPattern arrival = ArrivalPattern::Poisson;
    /** Bursty: burst cycle length, seconds. */
    double burst_period_s = 10.0;
    /** Bursty: fraction of each cycle spent in the burst, in (0, 1). */
    double burst_duty = 0.25;
    /** Bursty: burst rate multiplier (>= 1; burst_duty*burst_peak <= 1
     *  so the trough rate stays non-negative). */
    double burst_peak = 3.0;
    /** Diurnal: cycle length, seconds. */
    double diurnal_period_s = 60.0;
    /** Diurnal: rate swing fraction, in [0, 1). */
    double diurnal_amplitude = 0.8;

    /** Median prompt length, tokens (log-normal body). */
    std::size_t prompt_len_median = 512;
    /** Log-normal sigma of the prompt-length distribution. */
    double prompt_len_sigma = 0.6;
    std::size_t prompt_len_min = 16;
    std::size_t prompt_len_max = 4096;

    /** Median generation length, tokens. */
    std::size_t gen_tokens_median = 128;
    double gen_tokens_sigma = 0.6;
    std::size_t gen_tokens_min = 8;
    std::size_t gen_tokens_max = 1024;

    /** Distinct codebook groups (tenants) in the trace. */
    std::size_t num_codebook_groups = 64;
    /** Zipf skew of group popularity (0 = uniform). */
    double group_zipf_alpha = 1.0;

    /** Distinct priority levels, sampled uniformly per request (1 =
     *  every request at priority 0; draws no RNG so existing traces
     *  are unchanged). */
    std::size_t priority_levels = 1;

    /** Shared-prefix tenants: each request joins one of N groups and
     *  its prompt gains a prefix_tokens-long shared system prompt in
     *  front of the sampled tail (0 = no shared prefixes; draws no RNG
     *  so existing traces are unchanged). */
    std::size_t prefix_groups = 0;
    /** Shared system-prompt length per group, tokens. */
    std::size_t prefix_tokens = 1024;
    /** TTFT SLO deadline stamped on every request, us (EDF policy). */
    double ttft_deadline_us = kDefaultTtftDeadlineUs;
    /** TBT SLO deadline stamped on every request, us (EDF policy). */
    double tbt_deadline_us = kDefaultTbtDeadlineUs;

    /** Trace seed; one seed fully determines one trace. */
    std::uint64_t seed = 42;

    /**
     * Workload replay: path to a JSONL trace file.  Non-empty replaces
     * the synthetic generator entirely — one JSON object per line with
     * required fields `arrival_us`, `prompt_len`, `output_len` and an
     * optional `group` (codebook group, default 0).  Blank lines are
     * skipped; any malformed line is a hard error (vqllm_fatal).
     * Requests are sorted by arrival and re-identified 0..n-1, and the
     * deadline fields above are stamped as usual.
     */
    std::string trace_path;
};

/**
 * Generate a request trace: Poisson arrivals, log-normal lengths,
 * Zipf-popular codebook groups.  Deterministic in cfg.seed; requests are
 * returned sorted by arrival time with ids 0..n-1.  With
 * cfg.trace_path set, replays the JSONL file instead of sampling.
 */
std::vector<Request> generateWorkload(const WorkloadConfig &cfg);

/**
 * Load a JSONL request trace (see WorkloadConfig::trace_path for the
 * schema).  Deadlines are stamped from cfg; malformed lines and
 * unreadable files are hard errors.
 */
std::vector<Request> loadWorkloadTrace(const WorkloadConfig &cfg);

} // namespace vqllm::serving
