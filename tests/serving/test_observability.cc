/**
 * @file
 * Serving observability tests: tracing must be zero-cost when disabled
 * (bit-identical reports), traces must be deterministic across host
 * thread counts and repeated runs, the trace's category tiling must
 * reproduce the report's busy-time breakdown, and TP runs must record
 * distinct per-shard tracks.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

SimulatorConfig
quickConfig(llm::QuantScheme scheme = llm::QuantScheme::VQ2,
            int tp_degree = 1)
{
    SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.tp.degree = tp_degree;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 4;
    cfg.scheduler.chunk_tokens = 512; // exercise prefill chunk spans
    return cfg;
}

/** Relative closeness at the acceptance tolerance of the trace
 *  contract (1e-6), with a small absolute floor for zero components. */
void
expectClose(double a, double b)
{
    EXPECT_LE(std::abs(a - b),
              std::max(1e-6 * std::max(std::abs(a), std::abs(b)), 1e-6))
        << a << " vs " << b;
}

TEST(Observability, TracingOffReportIsBitIdentical)
{
    SimulatorConfig plain = quickConfig();
    ServingReport off = ServingSimulator(plain).run();

    obs::TraceRecorder rec;
    obs::MetricsRegistry reg;
    SimulatorConfig traced = quickConfig();
    traced.trace = &rec;
    traced.metrics = &reg;
    ServingReport on = ServingSimulator(traced).run();

    // json() prints every double with %.17g, so string equality is
    // bit-level equality of the whole report.
    EXPECT_EQ(off.json(), on.json());
    EXPECT_GT(rec.eventCount(), 0u);
    EXPECT_GT(reg.size(), 0u);
}

TEST(Observability, TraceIsDeterministicAcrossThreadsAndRepeats)
{
    ThreadGuard guard;
    auto traced = [](int threads) {
        par::setThreads(threads);
        obs::TraceRecorder rec;
        SimulatorConfig cfg = quickConfig();
        cfg.trace = &rec;
        ServingSimulator(cfg).run();
        return rec.chromeJson();
    };
    std::string t1 = traced(1);
    std::string t4 = traced(4);
    std::string t1_again = traced(1);
    EXPECT_EQ(t1, t4);
    EXPECT_EQ(t1, t1_again);
}

TEST(Observability, BreakdownPartitionsBusyTime)
{
    SimulatorConfig cfg = quickConfig(llm::QuantScheme::VQ2, 2);
    ServingReport r = ServingSimulator(cfg).run();
    EXPECT_GT(r.busy_time_us, 0.0);
    EXPECT_GT(r.prefill_us, 0.0);
    EXPECT_GT(r.decode_us, 0.0);
    EXPECT_GT(r.comm_us, 0.0); // degree 2: collectives priced
    expectClose(r.prefill_us + r.decode_us + r.comm_us +
                    r.codebook_upload_us,
                r.busy_time_us);
}

TEST(Observability, TraceCategoryTilingMatchesReportBreakdown)
{
    obs::TraceRecorder rec;
    SimulatorConfig cfg = quickConfig();
    cfg.trace = &rec;
    ServingReport r = ServingSimulator(cfg).run();

    expectClose(rec.categoryDurationUs("prefill"), r.prefill_us);
    expectClose(rec.categoryDurationUs("decode"), r.decode_us);
    expectClose(rec.categoryDurationUs("comm"), r.comm_us);
    expectClose(rec.categoryDurationUs("codebook"),
                r.codebook_upload_us);
    double tiles = rec.categoryDurationUs("prefill") +
                   rec.categoryDurationUs("decode") +
                   rec.categoryDurationUs("comm") +
                   rec.categoryDurationUs("codebook");
    expectClose(tiles, r.busy_time_us);
    // The iteration spans cover busy time exactly too.
    expectClose(rec.categoryDurationUs("iteration"), r.busy_time_us);
}

TEST(Observability, Tp4TraceRecordsDistinctShardTracks)
{
    obs::TraceRecorder rec;
    SimulatorConfig cfg = quickConfig(llm::QuantScheme::VQ4, 4);
    cfg.trace = &rec;
    ServingReport r = ServingSimulator(cfg).run();
    EXPECT_EQ(r.tp_degree, 4u);

    std::set<int> compute_tids;
    std::set<int> all_reduce_tids;
    bool kv_alloc_seen = false;
    for (const auto &e : rec.events()) {
        if (e.cat == "shard_compute")
            compute_tids.insert(e.tid);
        if (e.name == "all_reduce" && e.tid > 0)
            all_reduce_tids.insert(e.tid);
        if (e.name == "kv_alloc")
            kv_alloc_seen = true;
    }
    // Four shard tracks (tid 1..4) carry per-shard compute, and the
    // ring all-reduce appears on every shard's track.
    EXPECT_EQ(compute_tids,
              (std::set<int>{1, 2, 3, 4}));
    EXPECT_EQ(all_reduce_tids, (std::set<int>{1, 2, 3, 4}));
    EXPECT_TRUE(kv_alloc_seen);
    EXPECT_GT(rec.categoryDurationUs("comm"), 0.0);
}

TEST(Observability, RegistryAgreesWithReport)
{
    obs::MetricsRegistry reg;
    SimulatorConfig cfg = quickConfig();
    cfg.metrics = &reg;
    ServingReport r = ServingSimulator(cfg).run();

    const obs::Histogram *ttft =
        reg.findHistogram("serving.latency.ttft_us");
    ASSERT_NE(ttft, nullptr);
    EXPECT_EQ(ttft->count(), r.ttft.count);
    EXPECT_DOUBLE_EQ(ttft->maxValue(), r.ttft.max_us);
    EXPECT_DOUBLE_EQ(ttft->quantile(1.0), r.ttft.max_us);

    const obs::Counter *decode =
        reg.findCounter("serving.tokens.decode");
    ASSERT_NE(decode, nullptr);
    EXPECT_EQ(decode->value(), r.decode_tokens);
    EXPECT_EQ(reg.findCounter("serving.iterations")->value(),
              r.iterations);

    // Component metrics published at end of run.
    ASSERT_NE(reg.findCounter("serving.kv.block_allocs"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("serving.kv.peak_bytes")->value(),
                     static_cast<double>(r.shards[0].kv_peak_bytes));
    ASSERT_NE(reg.findCounter("compiler.plan_cache.misses"), nullptr);
    // Private per-run engine: absolute counters equal the run's deltas.
    EXPECT_EQ(reg.findCounter("compiler.plan_cache.hits")->value(),
              r.plan_cache_hits);
    EXPECT_DOUBLE_EQ(reg.findGauge("serving.busy_time_us")->value(),
                     r.busy_time_us);
    EXPECT_DOUBLE_EQ(reg.findGauge("serving.busy.prefill_us")->value(),
                     r.prefill_us);
    ASSERT_NE(reg.findGauge("serving.codebook.hit_rate"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("serving.codebook.hit_rate")
                         ->value(),
                     r.codebook_hit_rate);
}

TEST(Observability, ReportJsonParsesShape)
{
    SimulatorConfig cfg = quickConfig();
    ServingReport r = ServingSimulator(cfg).run();
    std::string j = r.json();
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
    for (const char *key :
         {"\"ttft\"", "\"busy_time_us\"", "\"prefill_us\"",
          "\"decode_us\"", "\"comm_us\"", "\"codebook_upload_us\"",
          "\"shards\"", "\"tp_degree\""})
        EXPECT_NE(j.find(key), std::string::npos) << key;
}

} // namespace
} // namespace vqllm::serving
