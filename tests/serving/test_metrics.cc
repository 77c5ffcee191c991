/**
 * @file
 * Tests for the serving metrics: percentile math and report assembly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "serving/metrics.h"

namespace vqllm::serving {
namespace {

TEST(Percentile, EmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Percentile, EndpointsAndMedian)
{
    std::vector<double> v = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(Percentile, LinearInterpolationBetweenRanks)
{
    std::vector<double> v = {0, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 0.95), 9.5);
    std::vector<double> w = {1, 2, 3, 4};
    // rank = 0.5 * 3 = 1.5 -> midway between 2 and 3.
    EXPECT_DOUBLE_EQ(percentile(w, 0.5), 2.5);
}

TEST(Percentile, ClampsQuantile)
{
    std::vector<double> v = {1, 2, 3};
    EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 2.0), 3.0);
}

TEST(Summarize, UnsortedInputHandled)
{
    auto s = summarize({5, 1, 3, 2, 4});
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean_us, 3.0);
    EXPECT_DOUBLE_EQ(s.p50_us, 3.0);
    EXPECT_DOUBLE_EQ(s.max_us, 5.0);
}

TEST(Summarize, PercentilesOrdered)
{
    std::vector<double> samples;
    for (int i = 1; i <= 1000; ++i)
        samples.push_back(static_cast<double>(i));
    auto s = summarize(samples);
    EXPECT_LT(s.p50_us, s.p95_us);
    EXPECT_LT(s.p95_us, s.p99_us);
    EXPECT_LE(s.p99_us, s.max_us);
    EXPECT_NEAR(s.p50_us, 500.5, 1.0);
    EXPECT_NEAR(s.p95_us, 950.0, 1.0);
    EXPECT_NEAR(s.p99_us, 990.0, 1.0);
}

TEST(Summarize, EmptyGivesZeros)
{
    auto s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.p99_us, 0.0);
}

/** summarize() as it was before it worked over runs: sort a copy,
 *  accumulate in ascending order, interpolate the percentiles. */
LatencyStats
sortThenAccumulate(std::vector<double> samples)
{
    LatencyStats s;
    if (samples.empty())
        return s;
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

void
expectSameBits(const std::vector<double> &samples)
{
    const LatencyStats got = summarize(samples);
    const LatencyStats want = sortThenAccumulate(samples);
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(bits(got.mean_us), bits(want.mean_us)) << got.mean_us;
    EXPECT_EQ(bits(got.p50_us), bits(want.p50_us)) << got.p50_us;
    EXPECT_EQ(bits(got.p95_us), bits(want.p95_us)) << got.p95_us;
    EXPECT_EQ(bits(got.p99_us), bits(want.p99_us)) << got.p99_us;
    EXPECT_EQ(bits(got.max_us), bits(want.max_us)) << got.max_us;
}

TEST(Summarize, MatchesSortThenAccumulateBitForBit)
{
    // Edge populations: one sample, two, all equal.
    expectSameBits({42.5});
    expectSameBits({3.25, 1.5});
    expectSameBits(std::vector<double>(1000, 17.125));
    // Signed inputs take the full-sort path: -0.0 and 0.0 must keep
    // the order the sort gives them.
    expectSameBits({0.0, -0.0, 3.0, -0.0, 0.0, 1.0});
    expectSameBits({-5.0, 2.0, -5.0, 7.5});

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        // Long equal runs (one TBT per sequence per decode step) drawn
        // from a few dozen step prices, so equal values also repeat
        // in runs that are not adjacent.
        std::vector<double> steps;
        for (int k = 0; k < 40; ++k)
            steps.push_back(std::exp(rng.uniform(std::log(1.0),
                                                  std::log(1e9))));
        std::vector<double> runs;
        while (runs.size() < 50000) {
            const double v = steps[rng.uniformInt(steps.size())];
            runs.insert(runs.end(), 1 + rng.uniformInt(64), v);
        }
        expectSameBits(runs);
        // Scattered samples over the full 1 us .. 1e9 us spread, with
        // repeats that are mostly not adjacent.
        std::vector<double> spread;
        for (int k = 0; k < 20000; ++k)
            spread.push_back(
                rng.uniformInt(4) == 0
                    ? steps[rng.uniformInt(steps.size())]
                    : std::exp(rng.uniform(std::log(1.0),
                                           std::log(1e9))));
        expectSameBits(spread);
    }
}

TEST(MetricsCollector, AccumulatesCounters)
{
    MetricsCollector m;
    m.recordTtft(100);
    m.recordTbt(10);
    m.recordTbt(20);
    m.recordDecodeTokens(3);
    m.recordPrefillTokens(128);
    m.recordPreemption();
    EXPECT_EQ(m.ttftSamples().size(), 1u);
    EXPECT_EQ(m.tbtSamples().size(), 2u);
    EXPECT_EQ(m.decodeTokens(), 3u);
    EXPECT_EQ(m.prefillTokens(), 128u);
    EXPECT_EQ(m.preemptions(), 1u);
}

TEST(ServingReport, SummaryMentionsKeyNumbers)
{
    ServingReport r;
    r.ttft = summarize({1000.0});
    r.tokens_per_sec = 123.4;
    r.sim_time_us = 2e6;
    r.completed_requests = 42;
    r.kv_peak_bytes = 1500000000;
    r.kv_capacity_bytes = 3000000000;
    auto text = r.summary();
    EXPECT_NE(text.find("123.4"), std::string::npos);
    EXPECT_NE(text.find("completed 42"), std::string::npos);
    EXPECT_NE(text.find("1.50 GB"), std::string::npos);
}

} // namespace
} // namespace vqllm::serving
