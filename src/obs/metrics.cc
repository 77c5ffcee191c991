#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace vqllm::obs {

namespace {

/** %.17g round-trips doubles, so identical values serialize
 *  identically and the JSON stays bit-faithful. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram

double
Histogram::bucketHi(int i)
{
    return std::pow(2.0, i);
}

int
Histogram::bucketIndex(double v)
{
    if (v <= 1.0)
        return 0;
    int i = static_cast<int>(std::ceil(std::log(v) / std::log(2.0)));
    if (i < 0)
        i = 0;
    // log() rounding can land one bucket off; nudge to the invariant
    // bucketHi(i-1) < v <= bucketHi(i).
    while (bucketHi(i) < v)
        ++i;
    while (i > 0 && bucketHi(i - 1) >= v)
        --i;
    return i;
}

void
Histogram::record(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    ++counts_[bucketIndex(v)];
}

double
Histogram::mean() const
{
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::minValue() const
{
    return count_ > 0 ? min_ : 0.0;
}

double
Histogram::maxValue() const
{
    return count_ > 0 ? max_ : 0.0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(count_);
    double before = 0;
    for (const auto &[idx, n] : counts_) {
        double after = before + static_cast<double>(n);
        if (after >= target) {
            // Interpolate inside the bucket's value range.  Bucket 0
            // spans (-inf, 1]; anchor it at the observed
            // minimum so the interpolation stays within real data.
            double lo = idx == 0 ? min_ : bucketHi(idx - 1);
            double hi = bucketHi(idx);
            double frac =
                n > 0 ? (target - before) / static_cast<double>(n) : 0;
            double v = lo + (hi - lo) * frac;
            // Clamp to the observed range: q=0 -> exact min, q=1 ->
            // exact max, single sample -> that sample everywhere.
            return std::clamp(v, min_, max_);
        }
        before = after;
    }
    return max_;
}

std::vector<Histogram::Bucket>
Histogram::buckets() const
{
    std::vector<Bucket> out;
    out.reserve(counts_.size());
    for (const auto &[idx, n] : counts_) {
        Bucket b;
        b.lo = idx == 0 ? 0.0 : bucketHi(idx - 1);
        b.hi = bucketHi(idx);
        b.count = n;
        out.push_back(b);
    }
    return out;
}

// ---------------------------------------------------------------------
// MetricsRegistry

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return gauges_[name];
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it != counters_.end() ? &it->second : nullptr;
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it != histograms_.end() ? &it->second : nullptr;
}

std::size_t
MetricsRegistry::size() const
{
    return counters_.size() + gauges_.size() + histograms_.size();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": " << c.value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": " << jsonNumber(g.value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << name << "\": {"
           << "\"count\": " << h.count()
           << ", \"sum\": " << jsonNumber(h.sum())
           << ", \"mean\": " << jsonNumber(h.mean())
           << ", \"min\": " << jsonNumber(h.minValue())
           << ", \"max\": " << jsonNumber(h.maxValue())
           << ", \"p50\": " << jsonNumber(h.quantile(0.50))
           << ", \"p95\": " << jsonNumber(h.quantile(0.95))
           << ", \"p99\": " << jsonNumber(h.quantile(0.99))
           << ",\n      \"buckets\": [";
        const auto buckets = h.buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            os << (i == 0 ? "" : ", ") << "{\"lo\": "
               << jsonNumber(buckets[i].lo)
               << ", \"hi\": " << jsonNumber(buckets[i].hi)
               << ", \"count\": " << buckets[i].count << "}";
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

std::string
MetricsRegistry::json() const
{
    std::ostringstream oss;
    writeJson(oss);
    return oss.str();
}

} // namespace vqllm::obs
