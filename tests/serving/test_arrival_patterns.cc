/**
 * @file
 * Arrival-pattern tests: the Poisson default must draw exactly the
 * pre-pattern RNG sequence (existing traces bit-identical), the
 * modulated patterns must preserve the configured mean rate over full
 * periods while concentrating arrivals where the instantaneous rate
 * peaks, and the parameter validations must be hard errors.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serving/request.h"

namespace vqllm::serving {
namespace {

WorkloadConfig
baseConfig()
{
    WorkloadConfig cfg;
    cfg.qps = 20;
    cfg.duration_s = 40;
    cfg.seed = 7;
    return cfg;
}

TEST(ArrivalPatterns, NamesRoundTrip)
{
    for (auto p : {ArrivalPattern::Poisson, ArrivalPattern::Bursty,
                   ArrivalPattern::Diurnal})
        EXPECT_EQ(parseArrivalPattern(arrivalPatternName(p)), p);
    EXPECT_FALSE(parseArrivalPattern("steady").has_value());
}

TEST(ArrivalPatterns, PoissonIgnoresPatternParameters)
{
    auto cfg = baseConfig();
    auto before = generateWorkload(cfg);
    cfg.burst_period_s = 3;
    cfg.burst_peak = 2;
    cfg.diurnal_amplitude = 0.5;
    auto after = generateWorkload(cfg);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].arrival_us, after[i].arrival_us);
        EXPECT_EQ(before[i].prompt_len, after[i].prompt_len);
        EXPECT_EQ(before[i].max_new_tokens, after[i].max_new_tokens);
    }
}

TEST(ArrivalPatterns, BurstyPreservesTheMeanRate)
{
    auto cfg = baseConfig();
    cfg.arrival = ArrivalPattern::Bursty;
    cfg.burst_period_s = 5;
    auto trace = generateWorkload(cfg);
    double expected = cfg.qps * cfg.duration_s;
    EXPECT_NEAR(static_cast<double>(trace.size()), expected,
                0.15 * expected);
}

TEST(ArrivalPatterns, BurstyConcentratesArrivalsInTheBurstWindow)
{
    auto cfg = baseConfig();
    cfg.arrival = ArrivalPattern::Bursty;
    cfg.burst_period_s = 5;
    cfg.burst_duty = 0.25;
    cfg.burst_peak = 3;
    auto trace = generateWorkload(cfg);
    std::size_t in_burst = 0;
    for (const auto &r : trace) {
        double phase = std::fmod(r.arrival_us / 1e6, cfg.burst_period_s);
        if (phase < cfg.burst_duty * cfg.burst_period_s)
            ++in_burst;
    }
    // The burst window holds 25% of the time but 75% of the rate mass.
    double frac =
        static_cast<double>(in_burst) / static_cast<double>(trace.size());
    EXPECT_GT(frac, 0.6);
    EXPECT_LT(frac, 0.9);
}

TEST(ArrivalPatterns, DiurnalPreservesTheMeanAndPeaksMidCycle)
{
    auto cfg = baseConfig();
    cfg.arrival = ArrivalPattern::Diurnal;
    cfg.diurnal_period_s = 10;
    cfg.diurnal_amplitude = 0.9;
    auto trace = generateWorkload(cfg);
    double expected = cfg.qps * cfg.duration_s;
    EXPECT_NEAR(static_cast<double>(trace.size()), expected,
                0.15 * expected);
    // sin peaks in the first half of each cycle, troughs in the second:
    // the first half must carry well over half the arrivals.
    std::size_t first_half = 0;
    for (const auto &r : trace)
        if (std::fmod(r.arrival_us / 1e6, cfg.diurnal_period_s) <
            cfg.diurnal_period_s / 2)
            ++first_half;
    EXPECT_GT(static_cast<double>(first_half),
              0.6 * static_cast<double>(trace.size()));
}

TEST(ArrivalPatterns, PatternsAreDeterministicPerSeed)
{
    for (auto p : {ArrivalPattern::Bursty, ArrivalPattern::Diurnal}) {
        auto cfg = baseConfig();
        cfg.arrival = p;
        auto a = generateWorkload(cfg);
        auto b = generateWorkload(cfg);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    }
}

TEST(ArrivalPatterns, InvalidParametersAreFatal)
{
    auto bursty = baseConfig();
    bursty.arrival = ArrivalPattern::Bursty;
    {
        auto cfg = bursty;
        cfg.burst_period_s = 0;
        EXPECT_DEATH({ generateWorkload(cfg); }, "burst_period_s");
    }
    {
        auto cfg = bursty;
        cfg.burst_duty = 1.0;
        EXPECT_DEATH({ generateWorkload(cfg); }, "burst_duty");
    }
    {
        auto cfg = bursty;
        cfg.burst_peak = 0.5;
        EXPECT_DEATH({ generateWorkload(cfg); }, "burst_peak");
    }
    {
        auto cfg = bursty;
        cfg.burst_duty = 0.5;
        cfg.burst_peak = 3.0; // duty * peak > 1: negative trough
        EXPECT_DEATH({ generateWorkload(cfg); }, "burst_duty");
    }
    {
        auto cfg = baseConfig();
        cfg.arrival = ArrivalPattern::Diurnal;
        cfg.diurnal_amplitude = 1.0;
        EXPECT_DEATH({ generateWorkload(cfg); }, "diurnal_amplitude");
    }
    // A negative or NaN rate, or a NaN or infinite horizon, never
    // reaches the horizon: generation would not return.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double qps : {-1.0, 0.0, nan}) {
        auto cfg = baseConfig();
        cfg.qps = qps;
        EXPECT_DEATH({ generateWorkload(cfg); }, "qps");
    }
    for (double duration : {nan, std::numeric_limits<double>::infinity(),
                            -1.0}) {
        auto cfg = baseConfig();
        cfg.duration_s = duration;
        EXPECT_DEATH({ generateWorkload(cfg); }, "duration_s");
    }
}

} // namespace
} // namespace vqllm::serving
