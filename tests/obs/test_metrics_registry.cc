/**
 * @file
 * Tests for the metrics registry: counter/gauge semantics, log-bucketed
 * histogram edge cases (empty, single sample, extreme quantiles, bucket
 * boundaries) and deterministic JSON export.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.h"

namespace vqllm::obs {
namespace {

TEST(Counter, AccumulatesMonotonically)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Histogram, EmptyPopulation)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, SingleSampleAtEveryQuantile)
{
    Histogram h;
    h.record(37.5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 37.5);
    EXPECT_DOUBLE_EQ(h.mean(), 37.5);
    // Every quantile of a one-sample population is that sample: the
    // interpolation is clamped to the observed [min, max].
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 37.5);
}

TEST(Histogram, ExtremeQuantilesAreExactMinMax)
{
    Histogram h;
    for (double v : {3.0, 700.0, 15.0, 0.5, 120.0})
        h.record(v);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 700.0);
    // Quantiles clamp outside [0, 1] too.
    EXPECT_DOUBLE_EQ(h.quantile(-3.0), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(7.0), 700.0);
    // Interior quantiles stay within the observed range and are
    // monotone in q.
    double prev = h.quantile(0.0);
    for (double q = 0.1; q < 1.0; q += 0.1) {
        double v = h.quantile(q);
        EXPECT_GE(v, prev);
        EXPECT_LE(v, 700.0);
        prev = v;
    }
}

TEST(Histogram, BucketBoundariesAreHalfOpen)
{
    // Power-of-two buckets: (-inf,1], (1,2], (2,4], ...
    Histogram h;
    h.record(1.0); // boundary: lands in bucket 0
    h.record(2.0); // boundary: lands in (1,2]
    h.record(2.5);
    h.record(4.0); // boundary: lands in (2,4]
    auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_DOUBLE_EQ(buckets[0].hi, 1.0);
    EXPECT_EQ(buckets[0].count, 1u);
    EXPECT_DOUBLE_EQ(buckets[1].lo, 1.0);
    EXPECT_DOUBLE_EQ(buckets[1].hi, 2.0);
    EXPECT_EQ(buckets[1].count, 1u);
    EXPECT_DOUBLE_EQ(buckets[2].lo, 2.0);
    EXPECT_DOUBLE_EQ(buckets[2].hi, 4.0);
    EXPECT_EQ(buckets[2].count, 2u);
}

TEST(Histogram, NegativeAndZeroSamplesLandInFirstBucket)
{
    Histogram h;
    h.record(-5.0);
    h.record(0.0);
    h.record(0.5);
    auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].count, 3u);
    EXPECT_DOUBLE_EQ(h.minValue(), -5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.5);
}

TEST(Histogram, CountAndSumAreExact)
{
    Histogram h;
    double expect_sum = 0;
    for (int i = 1; i <= 1000; ++i) {
        h.record(static_cast<double>(i));
        expect_sum += i;
    }
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), expect_sum);
    EXPECT_DOUBLE_EQ(h.mean(), expect_sum / 1000.0);
    // The p50 estimate must land within the containing log bucket of
    // the true median (500): bucket (256, 512].
    double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 256.0);
    EXPECT_LE(p50, 512.0);
}

TEST(Registry, CreateOnFirstUseReturnsStableRefs)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("x.count");
    a.add(5);
    Counter &b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 5u);
    EXPECT_EQ(reg.findCounter("x.count")->value(), 5u);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.findGauge("x.count"), nullptr);
}

TEST(Registry, SizeCountsAllInstruments)
{
    MetricsRegistry reg;
    reg.counter("a");
    reg.gauge("b");
    reg.histogram("c");
    reg.counter("a"); // no duplicate
    EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, JsonIsDeterministicAndSorted)
{
    auto build = [] {
        MetricsRegistry reg;
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.gauge").set(0.5);
        reg.histogram("h.lat").record(12.0);
        return reg.json();
    };
    std::string j1 = build();
    std::string j2 = build();
    EXPECT_EQ(j1, j2);
    // Sorted: "a.first" serializes before "z.last".
    EXPECT_LT(j1.find("a.first"), j1.find("z.last"));
    EXPECT_NE(j1.find("\"counters\""), std::string::npos);
    EXPECT_NE(j1.find("\"gauges\""), std::string::npos);
    EXPECT_NE(j1.find("\"histograms\""), std::string::npos);
}

TEST(Registry, JsonRoundTripsExtremeDoubles)
{
    MetricsRegistry reg;
    reg.gauge("tiny").set(1e-300);
    reg.gauge("precise").set(0.1 + 0.2); // 0.30000000000000004
    std::string j = reg.json();
    // %.17g prints enough digits to round-trip.
    EXPECT_NE(j.find("0.30000000000000004"), std::string::npos);
    EXPECT_NE(j.find("1e-300"), std::string::npos);
}

} // namespace
} // namespace vqllm::obs
