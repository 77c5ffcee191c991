/**
 * @file
 * Serving-level metrics: latency percentiles and throughput counters.
 *
 * The simulator records three latency populations per run — TTFT (time
 * to first token, including queueing and prefill), TBT (time between
 * consecutive output tokens of one request, so preemption stalls appear
 * as TBT outliers) and request end-to-end latency — plus the counters a
 * capacity planner needs: sustained tokens/sec, the KV high-water mark,
 * preemptions, and codebook residency hit rate.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace vqllm::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}

namespace vqllm::serving {

/** Summary statistics of one latency population (microseconds). */
struct LatencyStats
{
    std::size_t count = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double max_us = 0;
};

/**
 * Percentile by linear interpolation between closest ranks.
 *
 * @param sorted ascending samples (empty returns 0)
 * @param q      quantile in [0, 1]
 */
double percentile(const std::vector<double> &sorted, double q);

/**
 * Summarize a latency population (empty input → zeros).  mean_us is the
 * ascending-order sum over the count, bit for bit; the samples are
 * sorted as runs of equal values, which is cheap for the simulator's
 * TBT populations (one equal sample per sequence per decode step).
 */
LatencyStats summarize(const std::vector<double> &samples);

// JSON writers of ServingReport::json() and fleet::FleetReport::json().
/** %.17g: the shortest form that round-trips a double. */
std::string jsonDouble(double v);
std::string jsonU64(std::uint64_t v);
/** `"name":{"count":..,"mean_us":..,"p50_us":..,..,"max_us":..}`. */
void writeLatency(std::ostream &os, const char *name,
                  const LatencyStats &s);

/**
 * Accumulator the simulator feeds while the clock advances.
 *
 * Given a MetricsRegistry the collector additionally streams every
 * sample into live registry instruments (`serving.latency.*`
 * histograms, `serving.tokens.*` / `serving.preemptions` counters);
 * without one it is exactly the plain sample buffer it always was.
 */
class MetricsCollector
{
  public:
    explicit MetricsCollector(obs::MetricsRegistry *registry = nullptr);

    void recordTtft(double us);
    void recordTbt(double us);
    void recordE2e(double us);
    void recordDecodeTokens(std::uint64_t n);
    void recordPrefillTokens(std::uint64_t n);
    void recordPreemption();

    const std::vector<double> &ttftSamples() const { return ttft_us_; }
    const std::vector<double> &tbtSamples() const { return tbt_us_; }
    const std::vector<double> &e2eSamples() const { return e2e_us_; }
    std::uint64_t decodeTokens() const { return decode_tokens_; }
    std::uint64_t prefillTokens() const { return prefill_tokens_; }
    std::uint64_t preemptions() const { return preemptions_; }

  private:
    std::vector<double> ttft_us_;
    std::vector<double> tbt_us_;
    std::vector<double> e2e_us_;
    std::uint64_t decode_tokens_ = 0;
    std::uint64_t prefill_tokens_ = 0;
    std::uint64_t preemptions_ = 0;

    // Registry instruments (nullptr when no registry was given);
    // resolved once at construction so record paths stay O(1).
    obs::Histogram *h_ttft_ = nullptr;
    obs::Histogram *h_tbt_ = nullptr;
    obs::Histogram *h_e2e_ = nullptr;
    obs::Counter *c_decode_tokens_ = nullptr;
    obs::Counter *c_prefill_tokens_ = nullptr;
    obs::Counter *c_preemptions_ = nullptr;
};

/** Per-device view of one tensor-parallel serving run. */
struct ShardReport
{
    /** KV high-water mark on this device, bytes. */
    std::uint64_t kv_peak_bytes = 0;
    /** KV capacity of this device, bytes. */
    std::uint64_t kv_capacity_bytes = 0;

    /** @return peak KV occupancy of this device ([0,1]). */
    double
    kvPeakFraction() const
    {
        return kv_capacity_bytes > 0
                   ? static_cast<double>(kv_peak_bytes) /
                         static_cast<double>(kv_capacity_bytes)
                   : 0.0;
    }
};

/** Final report of one serving simulation. */
struct ServingReport
{
    LatencyStats ttft;
    LatencyStats tbt;
    LatencyStats e2e;

    /** Simulated makespan (last event timestamp), microseconds. */
    double sim_time_us = 0;
    /** Time the GPU spent executing iterations, microseconds — the
     *  makespan minus idle fast-forward gaps between arrivals. */
    double busy_time_us = 0;
    /** busy_time_us / sim_time_us ([0,1]). */
    double utilization = 0;
    /** Decode tokens emitted per *busy* second (idle gaps at low QPS
     *  would otherwise underreport the served throughput). */
    double tokens_per_sec = 0;
    std::uint64_t completed_requests = 0;
    std::uint64_t rejected_requests = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t decode_tokens = 0;
    std::uint64_t prefill_tokens = 0;
    /** Scheduler iterations executed. */
    std::uint64_t iterations = 0;

    /** Tensor-parallel degree of the run (1 = single GPU). */
    std::uint64_t tp_degree = 1;
    /** Ring all-reduce time summed over the run, microseconds (0 at
     *  degree 1). */
    double comm_us = 0;
    /** Collective share of busy time ([0,1]; 0 at degree 1). */
    double comm_fraction = 0;

    // Busy-time breakdown: prefill + decode + comm + codebook_upload
    // partitions busy_time_us (each iteration's price is the sum of
    // exactly these four components).
    /** Prefill compute summed over the run, microseconds. */
    double prefill_us = 0;
    /** Decode compute summed over the run, microseconds. */
    double decode_us = 0;
    /** Codebook upload (residency misses) summed, microseconds. */
    double codebook_upload_us = 0;
    /** Per-device KV occupancy (one entry per shard; a single entry
     *  at degree 1). */
    std::vector<ShardReport> shards;

    /** KV-cache high-water mark, bytes (summed over shards). */
    std::uint64_t kv_peak_bytes = 0;
    /** Aggregate KV capacity, bytes (summed over shards). */
    std::uint64_t kv_capacity_bytes = 0;
    /** Codebook residency hit rate over the run ([0,1]; 1 when the
     *  scheme has no codebooks). */
    double codebook_hit_rate = 1.0;

    /** compiler::Engine plan-cache lookups this run made (the delta
     *  across the run; see SimulatorConfig::engine for sharing
     *  caveats).  The pricer memoizes every price, so a lookup happens
     *  only the first time the run prices a (shard, batch) linear or a
     *  (shard, bucket, count) VQ attention sub-launch: misses count
     *  the kernels compiled, hits the ones another slot or an earlier
     *  run on a shared engine already compiled.  Zero lookups for
     *  schemes that never compile VQ kernels (FP16/EWQ weights with
     *  FP16/INT4 KV price closed-form). */
    std::uint64_t plan_cache_hits = 0;
    std::uint64_t plan_cache_misses = 0;
    std::uint64_t plan_cache_evictions = 0;

    // Cross-request prefix caching (SimulatorConfig::prefix_cache).
    // The fields below stay at their defaults when the cache is off;
    // json() always carries them, summary() only when enabled.
    /** True when the run served with the prefix cache enabled. */
    bool prefix_cache_enabled = false;
    /** Prefix-bearing prompts matched against the index. */
    std::uint64_t prefix_lookups = 0;
    /** Lookups that attached at least one cached block. */
    std::uint64_t prefix_hits = 0;
    /** Prompt tokens served from cache instead of prefill — the
     *  prefill compute the cache saved. */
    std::uint64_t prefix_matched_tokens = 0;
    /** Cached blocks evicted (LFU capacity plus pool-pressure
     *  reclaim). */
    std::uint64_t prefix_evicted_blocks = 0;
    /** Cached blocks resident at end of run (blocks of the one KV
     *  table, which every TP device holds). */
    std::uint64_t prefix_cached_blocks = 0;
    /** Copy-on-write forks: writes into a shared tail block's slack
     *  that privatized it first. */
    std::uint64_t cow_forks = 0;
    /** Matched tokens over total prefill demand (matched + actually
     *  prefilled), [0,1]. */
    double prefix_hit_rate = 0;

    // KV storage scheme (SimulatorConfig::kv_scheme), populated for
    // every run.  json() always carries them; summary() only when the
    // resolved KV scheme is not FP16.
    /** CLI/JSON token of the resolved KV scheme ("fp16", "int4",
     *  "vq4", "vq2"). */
    std::string kv_scheme = "fp16";
    /** KV bytes one cached token occupies across the decoder stack
     *  under the KV scheme (summed over shards). */
    std::uint64_t kv_bytes_per_token = 0;
    /** Resident-token capacity multiplier vs FP16 KV at equal pool
     *  bytes (FP16 bytes/token over the scheme's bytes/token). */
    double kv_capacity_multiplier = 1.0;
    /** Signed decode-attention delta attributable to the KV scheme
     *  over the run, microseconds: dequant/codebook cost minus the
     *  HBM savings of reading fewer KV bytes (usually negative —
     *  compression speeds attention up).  Attribution only: already
     *  contained in decode_us; exactly 0 under FP16 KV. */
    double kv_dequant_us = 0;
    /** Peak concurrently running (prefilling or decoding) sequences
     *  over the run's iterations. */
    std::uint64_t peak_running_seqs = 0;

    /** @return plan-cache hit rate ([0,1]; 1 when nothing compiled). */
    double
    planCacheHitRate() const
    {
        std::uint64_t lookups = plan_cache_hits + plan_cache_misses;
        return lookups > 0 ? static_cast<double>(plan_cache_hits) /
                                 static_cast<double>(lookups)
                           : 1.0;
    }

    /** @return multi-line human-readable summary. */
    std::string summary() const;

    /**
     * @return the full report as a deterministic JSON object: every
     * scalar field, the busy-time breakdown and the per-shard views.
     * Doubles print with %.17g (round-trip exact), so two reports
     * serialize identically iff they are bit-identical — the property
     * the tracing-off parity tests key on.
     */
    std::string json() const;
};

} // namespace vqllm::serving
