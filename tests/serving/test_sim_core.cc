/**
 * @file
 * SimulatorCore's replica loop.  ServingSimulator::run (enqueue every
 * request, advance until nextEventUs() is +inf, finalize) must match a
 * driver that owns the clock policy itself through submit / setNow /
 * step, byte for byte in the report, the metrics and the trace: over
 * idle gaps, equal arrival timestamps, never-fit requests anywhere in
 * the trace, and a trace the replica rejects whole.  Delivery is in
 * (arrival_us, id) order whatever the trace's order, and enqueued but
 * undelivered requests count as queued load.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/sim_core.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

/** A prompt no KV pool of these configs can ever hold. */
constexpr std::size_t kNeverFit = 50'000'000;

/** Closed-form EWQ4 prices with chunked prefill (no compiles). */
SimulatorConfig
chunkedConfig()
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4;
    cfg.kv_scheme = llm::KvScheme::INT4;
    cfg.scheduler.chunk_tokens = 256;
    return cfg;
}

/** VQ4 KV at TP degree 2: codebook uploads, shard tracks and decode
 *  collectives in the trace. */
SimulatorConfig
tpConfig()
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::FP16;
    cfg.kv_scheme = llm::KvScheme::VQ4;
    cfg.tp.degree = 2;
    return cfg;
}

std::vector<Request>
workload(double qps, double duration_s)
{
    WorkloadConfig w;
    w.qps = qps;
    w.duration_s = duration_s;
    return generateWorkload(w);
}

/**
 * The loop every driver ran before the core delivered its own
 * arrivals: submit the arrivals due in trace order, fast-forward an
 * idle clock to the next arrival, step.
 */
ServingReport
externalLoop(const SimulatorConfig &cfg, std::vector<Request> &trace)
{
    SimulatorCore core(cfg);
    std::size_t next_arrival = 0;
    while (core.completedCount() + core.rejectedCount() < trace.size()) {
        while (next_arrival < trace.size() &&
               trace[next_arrival].arrival_us <= core.now())
            core.submit(&trace[next_arrival++]);
        if (core.idle()) {
            if (next_arrival >= trace.size())
                break; // every remaining request was rejected
            core.setNow(trace[next_arrival].arrival_us);
            continue;
        }
        core.step();
    }
    return core.finalize();
}

ServingReport
coreLoop(const SimulatorConfig &cfg, std::vector<Request> &trace)
{
    return ServingSimulator(cfg).run(trace);
}

/** Everything one traced run leaves behind. */
struct RunOutput
{
    ServingReport report;
    std::string json;
    std::string metrics;
    std::string trace;
};

/** Run a copy of @p trace through @p drive with a trace recorder and a
 *  metrics registry attached. */
template <class Drive>
RunOutput
traced(SimulatorConfig cfg, std::vector<Request> trace, Drive drive)
{
    obs::TraceRecorder rec;
    obs::MetricsRegistry reg;
    cfg.trace = &rec;
    cfg.metrics = &reg;
    RunOutput run;
    run.report = drive(cfg, trace);
    run.json = run.report.json();
    run.metrics = reg.json();
    std::ostringstream os;
    rec.writeChromeJson(os);
    run.trace = os.str();
    return run;
}

/** ServingSimulator::run on @p trace, checked byte for byte against
 *  the external loop on both configs.  @return the chunked run. */
RunOutput
expectMatchesExternalLoop(const std::vector<Request> &trace)
{
    RunOutput chunked;
    for (const SimulatorConfig &cfg : {chunkedConfig(), tpConfig()}) {
        SCOPED_TRACE("TP degree " + std::to_string(cfg.tp.degree));
        RunOutput ours = traced(cfg, trace, coreLoop);
        RunOutput ref = traced(cfg, trace, externalLoop);
        EXPECT_EQ(ours.json, ref.json);
        EXPECT_EQ(ours.metrics, ref.metrics);
        EXPECT_EQ(ours.trace, ref.trace);
        EXPECT_EQ(ours.report.completed_requests +
                      ours.report.rejected_requests,
                  trace.size());
        if (cfg.tp.degree == 1)
            chunked = std::move(ours);
    }
    return chunked;
}

TEST(SimulatorCoreLoop, MatchesExternalLoopOverIdleGaps)
{
    // Low load finishes each request before the next arrives, and a
    // 20 s hole halfway through fast-forwards an idle clock again.
    std::vector<Request> trace = workload(0.5, 20);
    ASSERT_GE(trace.size(), 4u);
    for (std::size_t i = trace.size() / 2; i < trace.size(); ++i)
        trace[i].arrival_us += 20e6;
    RunOutput run = expectMatchesExternalLoop(trace);
    EXPECT_EQ(run.report.rejected_requests, 0u);
    EXPECT_LT(run.report.busy_time_us + 20e6, run.report.sim_time_us);
}

TEST(SimulatorCoreLoop, MatchesExternalLoopOnEqualArrivalTimestamps)
{
    // Arrivals floored to 250 ms steps: runs of requests share one
    // timestamp, in id order as generated.
    std::vector<Request> trace = workload(8, 4);
    for (Request &r : trace)
        r.arrival_us = std::floor(r.arrival_us / 250e3) * 250e3;
    std::size_t ties = 0;
    for (std::size_t i = 1; i < trace.size(); ++i)
        ties += trace[i].arrival_us == trace[i - 1].arrival_us;
    ASSERT_GT(ties, 4u);
    expectMatchesExternalLoop(trace);
}

TEST(SimulatorCoreLoop, MatchesExternalLoopWithNeverFitHeadMiddleAndTail)
{
    std::vector<Request> trace = workload(4, 5);
    ASSERT_GE(trace.size(), 3u);
    for (std::size_t i : {std::size_t{0}, trace.size() / 2,
                          trace.size() - 1})
        trace[i].prompt_len = kNeverFit;
    RunOutput run = expectMatchesExternalLoop(trace);
    EXPECT_EQ(run.report.rejected_requests, 3u);
    EXPECT_EQ(run.report.completed_requests, trace.size() - 3);
}

TEST(SimulatorCoreLoop, MatchesExternalLoopWhenEveryRequestIsRejected)
{
    std::vector<Request> trace = workload(4, 3);
    ASSERT_FALSE(trace.empty());
    for (Request &r : trace)
        r.prompt_len = kNeverFit;
    RunOutput run = expectMatchesExternalLoop(trace);
    EXPECT_EQ(run.report.rejected_requests, trace.size());
    EXPECT_EQ(run.report.completed_requests, 0u);
    EXPECT_EQ(run.report.iterations, 0u);
    // The clock fast-forwarded to the last arrival and never stepped.
    EXPECT_EQ(run.report.sim_time_us, trace.back().arrival_us);
}

TEST(SimulatorCoreLoop, DeliversInArrivalThenIdOrderWhateverTheTraceOrder)
{
    std::vector<Request> sorted = workload(8, 4);
    for (Request &r : sorted)
        r.arrival_us = std::floor(r.arrival_us / 250e3) * 250e3;
    // The policy orders the waiting queue itself, but rejections trace
    // in delivery order: never-fit requests make the order visible.
    for (std::size_t i = 0; i < sorted.size(); ++i)
        if (i % 3 != 0)
            sorted[i].prompt_len = kNeverFit;
    // Reversed, every run of equal timestamps lists its ids
    // descending: delivery must still be (arrival_us, id) order.
    std::vector<Request> reversed(sorted.rbegin(), sorted.rend());
    const RunOutput want = traced(chunkedConfig(), sorted, coreLoop);
    const RunOutput got = traced(chunkedConfig(), reversed, coreLoop);
    EXPECT_EQ(got.json, want.json);
    EXPECT_EQ(got.metrics, want.metrics);
    EXPECT_EQ(got.trace, want.trace);
}

TEST(SimulatorCoreLoop, UndeliveredRequestsCountAsQueuedLoad)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    SimulatorCore core(chunkedConfig());
    EXPECT_EQ(core.nextEventUs(), kInf);

    Request fresh;
    fresh.id = 0;
    fresh.arrival_us = 5e5;
    fresh.prompt_len = 300;
    fresh.max_new_tokens = 40;
    Request imported;
    imported.id = 1;
    imported.arrival_us = 5e5;
    imported.prompt_len = 900;
    imported.max_new_tokens = 20;
    imported.kv_imported = true; // its KV arrives by link: no prefill
    core.enqueue(&imported);
    core.enqueue(&fresh);

    EXPECT_TRUE(core.idle());
    EXPECT_EQ(core.queuedPrefillTokens(), 300u);
    EXPECT_EQ(core.queuedDecodeTokens(), 60u);
    // Idle with a backlog: the next event is the earliest arrival.
    EXPECT_EQ(core.nextEventUs(), 5e5);

    // The first advance fast-forwards to the arrival, delivers both
    // in id order and steps once; the clock then reads the step's end.
    core.advance();
    EXPECT_FALSE(core.idle());
    EXPECT_GT(core.now(), 5e5);
    EXPECT_EQ(core.nextEventUs(), core.now());
    EXPECT_NE(fresh.state, RequestState::Waiting);

    while (core.nextEventUs() < kInf)
        core.advance();
    EXPECT_EQ(core.queuedPrefillTokens(), 0u);
    EXPECT_EQ(core.queuedDecodeTokens(), 0u);
    EXPECT_EQ(core.completedCount(), 2u);
    EXPECT_EQ(fresh.state, RequestState::Finished);
    EXPECT_EQ(imported.state, RequestState::Finished);
    core.finalize();
}

} // namespace
} // namespace vqllm::serving
