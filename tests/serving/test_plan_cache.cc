/**
 * @file
 * Serving-simulator plan-cache tests: steady-state decode prices come
 * from the pricer's memo tables, so a run makes fewer engine lookups
 * than it has iterations; reports are bit-identical whether the cache
 * retains artifacts or not; and a pre-warmed shared engine answers
 * every lookup of a repeated run from cache.
 */
#include <gtest/gtest.h>

#include "compiler/engine.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

SimulatorConfig
vqConfig()
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::VQ2;
    cfg.workload.qps = 4.0;
    cfg.workload.duration_s = 5.0;
    cfg.workload.seed = 7;
    return cfg;
}

void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.sim_time_us, b.sim_time_us);
    EXPECT_EQ(a.busy_time_us, b.busy_time_us);
    EXPECT_EQ(a.tokens_per_sec, b.tokens_per_sec);
    EXPECT_EQ(a.ttft.p50_us, b.ttft.p50_us);
    EXPECT_EQ(a.ttft.p99_us, b.ttft.p99_us);
    EXPECT_EQ(a.tbt.p50_us, b.tbt.p50_us);
    EXPECT_EQ(a.tbt.p99_us, b.tbt.p99_us);
    EXPECT_EQ(a.e2e.mean_us, b.e2e.mean_us);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.decode_tokens, b.decode_tokens);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
}

TEST(ServingPlanCache, SteadyStateDecodePricesFromMemo)
{
    auto report = ServingSimulator(vqConfig()).run();
    ASSERT_GT(report.iterations, 10u);
    // VQ prices reach the engine only when a (shard, batch) linear or
    // (shard, bucket, count) attention memo slot is first filled; the
    // bucketed shapes repeat, so the whole run makes fewer lookups
    // than it has iterations.
    EXPECT_GT(report.plan_cache_hits + report.plan_cache_misses, 0u);
    EXPECT_LT(report.plan_cache_hits + report.plan_cache_misses,
              report.iterations);
    EXPECT_EQ(report.plan_cache_evictions, 0u);
}

TEST(ServingPlanCache, CachedAndUncachedRunsAreBitIdentical)
{
    // Cache-disabled engine: capacity 0 retains nothing, every
    // compile re-runs the full pipeline.
    compiler::EngineOptions cold_opts;
    cold_opts.cache_capacity = 0;
    compiler::Engine cold(gpusim::rtx4090(), cold_opts);

    auto cached_cfg = vqConfig();
    auto cold_cfg = vqConfig();
    cold_cfg.engine = &cold;

    auto cached_report = ServingSimulator(cached_cfg).run();
    auto cold_report = ServingSimulator(cold_cfg).run();

    expectReportsIdentical(cached_report, cold_report);
    EXPECT_EQ(cold_report.plan_cache_hits, 0u);
    EXPECT_GT(cold_report.plan_cache_evictions, 0u);
    // Same lookups either way; the cache only changes who answers.
    EXPECT_EQ(cached_report.plan_cache_hits +
                  cached_report.plan_cache_misses,
              cold_report.plan_cache_misses);
}

TEST(ServingPlanCache, WarmSharedEngineHitsFromFirstIteration)
{
    compiler::Engine eng(gpusim::rtx4090());
    auto cfg = vqConfig();
    cfg.engine = &eng;

    auto first = ServingSimulator(cfg).run();
    auto second = ServingSimulator(cfg).run();

    expectReportsIdentical(first, second);
    // The second run fills its fresh memo tables with the identical
    // shapes against a warm cache: every lookup hits.
    EXPECT_EQ(second.plan_cache_misses, 0u);
    EXPECT_EQ(second.plan_cache_hits,
              first.plan_cache_hits + first.plan_cache_misses);
}

TEST(ServingPlanCache, Fp16SchemeNeverCompiles)
{
    auto cfg = vqConfig();
    cfg.scheme = llm::QuantScheme::FP16;
    auto report = ServingSimulator(cfg).run();
    EXPECT_EQ(report.plan_cache_hits + report.plan_cache_misses, 0u);
    EXPECT_DOUBLE_EQ(report.planCacheHitRate(), 1.0);
}

} // namespace
} // namespace vqllm::serving
