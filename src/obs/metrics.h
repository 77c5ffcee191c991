/**
 * @file
 * MetricsRegistry — named counters, gauges, and log-bucketed
 * histograms with deterministic JSON export.
 *
 * The registry replaces ad-hoc counter plumbing: instead of every
 * subsystem growing its own stats struct that callers hand-copy into
 * reports, components publish into one registry under a dotted naming
 * convention and the whole thing serializes to machine-readable JSON
 * in one call.
 *
 * Naming convention: `<layer>.<component>.<metric>`, lower_snake_case
 * leaves, with the unit as the trailing suffix where one applies —
 * `serving.kv.block_allocs`, `serving.latency.ttft_us`,
 * `compiler.plan_cache.hits`.  The registry stores entries in sorted
 * (std::map) order, so JSON output is deterministic.
 *
 * Histograms are log-bucketed in powers of two: bucket i covers
 * (2^(i-1), 2^i], bucket 0 covers (-inf, 1].  Exact count/sum/min/max
 * are tracked alongside the buckets, and quantile() interpolates within
 * the containing bucket, clamped to the observed [min, max] — so q=0
 * returns the exact minimum, q=1 the exact maximum, and a single-sample
 * population returns that sample at every quantile.
 *
 * The registry is not thread-safe: a traced simulation is sequential,
 * and concurrent simulations each own a registry.  Aggregation across
 * runs happens at the JSON level.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace vqllm::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-write-wins point-in-time value. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0;
};

/** Power-of-two-bucketed histogram with exact count/sum/min/max. */
class Histogram
{
  public:
    void record(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    /** @return arithmetic mean (0 for an empty population). */
    double mean() const;
    /** @return smallest recorded value (0 when empty). */
    double minValue() const;
    /** @return largest recorded value (0 when empty). */
    double maxValue() const;

    /**
     * Quantile estimate by linear interpolation inside the containing
     * log bucket, clamped to the observed [min, max].
     *
     * @param q quantile in [0, 1] (clamped); empty population returns 0
     */
    double quantile(double q) const;

    /** One non-empty bucket: value range (lo, hi] and its count. */
    struct Bucket
    {
        double lo = 0;
        double hi = 0;
        std::uint64_t count = 0;
    };

    /** Non-empty buckets in ascending value order. */
    std::vector<Bucket> buckets() const;

  private:
    static int bucketIndex(double v);
    static double bucketHi(int i);

    std::map<int, std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Named metric registry.  Accessors create-on-first-use and return a
 * stable reference (the registry never erases entries), so hot paths
 * may cache the reference and skip the name lookup.
 */
class MetricsRegistry
{
  public:
    /** @return the counter registered under `name` (created if new). */
    Counter &counter(const std::string &name);

    /** @return the gauge registered under `name` (created if new). */
    Gauge &gauge(const std::string &name);

    /** @return the histogram registered under `name` (created if new). */
    Histogram &histogram(const std::string &name);

    /** @return registered counter, or nullptr. */
    const Counter *findCounter(const std::string &name) const;
    /** @return registered gauge, or nullptr. */
    const Gauge *findGauge(const std::string &name) const;
    /** @return registered histogram, or nullptr. */
    const Histogram *findHistogram(const std::string &name) const;

    std::size_t size() const;

    /**
     * Serialize every metric as one JSON object:
     * {"counters": {...}, "gauges": {...}, "histograms": {name:
     * {count, sum, mean, min, max, p50, p95, p99, buckets: [...]}}}.
     * Deterministic: sorted names, fixed number formatting.
     */
    void writeJson(std::ostream &os) const;

    /** @return the JSON document as a string. */
    std::string json() const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace vqllm::obs
