#include "serving/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace vqllm::serving {

std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeLatency(std::ostream &os, const char *name, const LatencyStats &s)
{
    os << "\"" << name << "\":{\"count\":" << s.count
       << ",\"mean_us\":" << jsonDouble(s.mean_us)
       << ",\"p50_us\":" << jsonDouble(s.p50_us)
       << ",\"p95_us\":" << jsonDouble(s.p95_us)
       << ",\"p99_us\":" << jsonDouble(s.p99_us)
       << ",\"max_us\":" << jsonDouble(s.max_us) << "}";
}

namespace {

/**
 * Quantile `q` of `n` ascending samples by linear interpolation between
 * closest ranks; `at(i)` is the i-th smallest sample.
 */
template <class At>
double
interpolate(std::size_t n, double q, At at)
{
    if (n == 1)
        return at(0);
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(n - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    auto hi = static_cast<std::size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return at(lo) + (at(hi) - at(lo)) * frac;
}

/** summarize() by sorting a copy of the samples. */
LatencyStats
summarizeSorted(std::vector<double> samples)
{
    LatencyStats s;
    std::sort(samples.begin(), samples.end());
    s.count = samples.size();
    s.mean_us = std::accumulate(samples.begin(), samples.end(), 0.0) /
                static_cast<double>(samples.size());
    s.p50_us = percentile(samples, 0.50);
    s.p95_us = percentile(samples, 0.95);
    s.p99_us = percentile(samples, 0.99);
    s.max_us = samples.back();
    return s;
}

} // namespace

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    return interpolate(sorted.size(), q,
                       [&](std::size_t i) { return sorted[i]; });
}

MetricsCollector::MetricsCollector(obs::MetricsRegistry *registry)
{
    if (registry == nullptr)
        return;
    // Latency populations span ~1us..minutes; 2x log buckets from 1us
    // keep relative error bounded across that range.
    h_ttft_ = &registry->histogram("serving.latency.ttft_us");
    h_tbt_ = &registry->histogram("serving.latency.tbt_us");
    h_e2e_ = &registry->histogram("serving.latency.e2e_us");
    c_decode_tokens_ = &registry->counter("serving.tokens.decode");
    c_prefill_tokens_ = &registry->counter("serving.tokens.prefill");
    c_preemptions_ = &registry->counter("serving.preemptions");
}

void
MetricsCollector::recordTtft(double us)
{
    ttft_us_.push_back(us);
    if (h_ttft_)
        h_ttft_->record(us);
}

void
MetricsCollector::recordE2e(double us)
{
    e2e_us_.push_back(us);
    if (h_e2e_)
        h_e2e_->record(us);
}

void
MetricsCollector::recordPrefillTokens(std::uint64_t n)
{
    prefill_tokens_ += n;
    if (c_prefill_tokens_)
        c_prefill_tokens_->add(n);
}

void
MetricsCollector::recordPreemption()
{
    ++preemptions_;
    if (c_preemptions_)
        c_preemptions_->add();
}

LatencyStats
summarize(const std::vector<double> &samples)
{
    LatencyStats s;
    if (samples.empty())
        return s;
    // The reports pin mean_us to the bits of an ascending-order sum, so
    // the samples must be visited in sorted order; but a decode step
    // records one equal TBT per sequence, so runs of equal samples are
    // few (~16k in 734k).  Sorting the (value, count) runs gives the
    // same ascending sequence of additions.  The sign bit and NaN send
    // a population to a full sort: NaN has no order, and -0.0 == 0.0,
    // so the order of their runs would pick a percentile's sign.
    //
    // At most one run per sample: reserving the bound means the
    // collapse never reallocates, and only the pages the runs fill are
    // touched.
    std::vector<std::pair<double, std::size_t>> runs;
    runs.reserve(samples.size());
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (double x : samples) {
        if (!runs.empty() && bits(x) == bits(runs.back().first)) {
            ++runs.back().second;
            continue;
        }
        if (std::signbit(x) || std::isnan(x))
            return summarizeSorted(samples);
        runs.emplace_back(x, 1);
    }
    std::sort(runs.begin(), runs.end());
    double sum = 0.0;
    for (const auto &[value, count] : runs)
        for (std::size_t k = 0; k < count; ++k)
            sum += value;
    // Turn counts into cumulative ends: run j holds the samples of rank
    // [end(j-1), end(j)).
    std::size_t end = 0;
    for (auto &run : runs)
        run.second = end += run.second;
    auto at = [&runs](std::size_t rank) {
        return std::upper_bound(runs.begin(), runs.end(), rank,
                                [](std::size_t k, const auto &run) {
                                    return k < run.second;
                                })
            ->first;
    };
    s.count = samples.size();
    s.mean_us = sum / static_cast<double>(samples.size());
    s.p50_us = interpolate(s.count, 0.50, at);
    s.p95_us = interpolate(s.count, 0.95, at);
    s.p99_us = interpolate(s.count, 0.99, at);
    s.max_us = runs.back().first;
    return s;
}

std::string
ServingReport::summary() const
{
    char buf[1024];
    auto line = [](const char *name, const LatencyStats &s) {
        char b[192];
        std::snprintf(b, sizeof(b),
                      "  %-5s p50 %9.1f ms  p95 %9.1f ms  p99 %9.1f ms"
                      "  (n=%zu)\n",
                      name, s.p50_us / 1e3, s.p95_us / 1e3,
                      s.p99_us / 1e3, s.count);
        return std::string(b);
    };
    std::string out;
    out += line("TTFT", ttft);
    out += line("TBT", tbt);
    out += line("E2E", e2e);
    std::snprintf(buf, sizeof(buf),
                  "  throughput %.1f tok/s busy, %.1f s busy of %.1f s "
                  "simulated (util %.1f%%)\n"
                  "  completed %llu, rejected %llu, preemptions %llu, "
                  "iterations %llu\n"
                  "  KV high-water %.2f GB of %.2f GB, codebook hit rate "
                  "%.1f%%\n",
                  tokens_per_sec, busy_time_us / 1e6, sim_time_us / 1e6,
                  utilization * 100.0,
                  static_cast<unsigned long long>(completed_requests),
                  static_cast<unsigned long long>(rejected_requests),
                  static_cast<unsigned long long>(preemptions),
                  static_cast<unsigned long long>(iterations),
                  static_cast<double>(kv_peak_bytes) / 1e9,
                  static_cast<double>(kv_capacity_bytes) / 1e9,
                  codebook_hit_rate * 100.0);
    out += buf;
    if (busy_time_us > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "  busy breakdown: prefill %.1f%%, decode %.1f%%, "
            "comm %.1f%%, codebook upload %.1f%%\n",
            prefill_us / busy_time_us * 100.0,
            decode_us / busy_time_us * 100.0,
            comm_us / busy_time_us * 100.0,
            codebook_upload_us / busy_time_us * 100.0);
        out += buf;
    }
    if (prefix_cache_enabled) {
        std::snprintf(
            buf, sizeof(buf),
            "  prefix cache %.1f%% of prefill demand served from cache "
            "(%llu tokens saved, %llu/%llu hits/lookups, %llu COW "
            "forks, %llu blocks evicted)\n",
            prefix_hit_rate * 100.0,
            static_cast<unsigned long long>(prefix_matched_tokens),
            static_cast<unsigned long long>(prefix_hits),
            static_cast<unsigned long long>(prefix_lookups),
            static_cast<unsigned long long>(cow_forks),
            static_cast<unsigned long long>(prefix_evicted_blocks));
        out += buf;
    }
    if (kv_scheme != "fp16") {
        std::snprintf(
            buf, sizeof(buf),
            "  KV scheme %s: %llu bytes/token (%.2fx capacity vs FP16), "
            "attn delta %+.2f s, peak running %llu seqs\n",
            kv_scheme.c_str(),
            static_cast<unsigned long long>(kv_bytes_per_token),
            kv_capacity_multiplier, kv_dequant_us / 1e6,
            static_cast<unsigned long long>(peak_running_seqs));
        out += buf;
    }
    if (plan_cache_hits + plan_cache_misses > 0) {
        std::snprintf(buf, sizeof(buf),
                      "  plan cache %.1f%% hits (%llu of %llu lookups)\n",
                      planCacheHitRate() * 100.0,
                      static_cast<unsigned long long>(plan_cache_hits),
                      static_cast<unsigned long long>(plan_cache_hits +
                                                      plan_cache_misses));
        out += buf;
    }
    if (tp_degree > 1) {
        std::snprintf(buf, sizeof(buf),
                      "  tensor parallel degree %llu, collectives %.2f s "
                      "(%.1f%% of busy time)\n",
                      static_cast<unsigned long long>(tp_degree),
                      comm_us / 1e6, comm_fraction * 100.0);
        out += buf;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const ShardReport &s = shards[i];
            std::snprintf(
                buf, sizeof(buf),
                "    shard %zu: KV peak %.2f GB of %.2f GB (%.1f%%)\n",
                i, static_cast<double>(s.kv_peak_bytes) / 1e9,
                static_cast<double>(s.kv_capacity_bytes) / 1e9,
                s.kvPeakFraction() * 100.0);
            out += buf;
        }
    }
    return out;
}

std::string
ServingReport::json() const
{
    std::ostringstream os;
    os << "{";
    writeLatency(os, "ttft", ttft);
    os << ",";
    writeLatency(os, "tbt", tbt);
    os << ",";
    writeLatency(os, "e2e", e2e);
    os << ",\"sim_time_us\":" << jsonDouble(sim_time_us)
       << ",\"busy_time_us\":" << jsonDouble(busy_time_us)
       << ",\"utilization\":" << jsonDouble(utilization)
       << ",\"tokens_per_sec\":" << jsonDouble(tokens_per_sec)
       << ",\"completed_requests\":" << jsonU64(completed_requests)
       << ",\"rejected_requests\":" << jsonU64(rejected_requests)
       << ",\"preemptions\":" << jsonU64(preemptions)
       << ",\"decode_tokens\":" << jsonU64(decode_tokens)
       << ",\"prefill_tokens\":" << jsonU64(prefill_tokens)
       << ",\"iterations\":" << jsonU64(iterations)
       << ",\"tp_degree\":" << jsonU64(tp_degree)
       << ",\"comm_us\":" << jsonDouble(comm_us)
       << ",\"comm_fraction\":" << jsonDouble(comm_fraction)
       << ",\"prefill_us\":" << jsonDouble(prefill_us)
       << ",\"decode_us\":" << jsonDouble(decode_us)
       << ",\"codebook_upload_us\":" << jsonDouble(codebook_upload_us)
       << ",\"kv_peak_bytes\":" << jsonU64(kv_peak_bytes)
       << ",\"kv_capacity_bytes\":" << jsonU64(kv_capacity_bytes)
       << ",\"codebook_hit_rate\":" << jsonDouble(codebook_hit_rate)
       << ",\"plan_cache_hits\":" << jsonU64(plan_cache_hits)
       << ",\"plan_cache_misses\":" << jsonU64(plan_cache_misses)
       << ",\"plan_cache_evictions\":" << jsonU64(plan_cache_evictions)
       << ",\"prefix_cache\":{\"enabled\":"
       << (prefix_cache_enabled ? "true" : "false")
       << ",\"lookups\":" << jsonU64(prefix_lookups)
       << ",\"hits\":" << jsonU64(prefix_hits)
       << ",\"matched_tokens\":" << jsonU64(prefix_matched_tokens)
       << ",\"evicted_blocks\":" << jsonU64(prefix_evicted_blocks)
       << ",\"cached_blocks\":" << jsonU64(prefix_cached_blocks)
       << ",\"cow_forks\":" << jsonU64(cow_forks)
       << ",\"hit_rate\":" << jsonDouble(prefix_hit_rate) << "}"
       << ",\"kv_scheme\":{\"scheme\":\"" << kv_scheme << "\""
       << ",\"bytes_per_token\":" << jsonU64(kv_bytes_per_token)
       << ",\"capacity_multiplier\":" << jsonDouble(kv_capacity_multiplier)
       << ",\"dequant_us\":" << jsonDouble(kv_dequant_us)
       << ",\"peak_running_seqs\":" << jsonU64(peak_running_seqs) << "}"
       << ",\"shards\":[";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardReport &s = shards[i];
        if (i > 0)
            os << ",";
        os << "{\"kv_peak_bytes\":" << jsonU64(s.kv_peak_bytes)
           << ",\"kv_capacity_bytes\":" << jsonU64(s.kv_capacity_bytes)
           << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace vqllm::serving
