/**
 * @file
 * Tests for chunked prefill: prompt slicing under the chunk budget,
 * mixed prefill/decode iterations, first-token emission on the final
 * slice, KV accounting invariants, and simulator-level determinism of
 * the chunked interleave across host thread counts.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "serving/scheduler.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

KvBlockPoolConfig
poolCfg(std::uint64_t blocks, std::size_t block_tokens = 4)
{
    KvBlockPoolConfig cfg;
    cfg.block_tokens = block_tokens;
    cfg.bytes_per_token = 1;
    cfg.capacity_bytes = blocks * block_tokens;
    return cfg;
}

Request
makeRequest(std::uint64_t id, double arrival_us, std::size_t prompt,
            std::size_t gen)
{
    Request r;
    r.id = id;
    r.arrival_us = arrival_us;
    r.prompt_len = prompt;
    r.max_new_tokens = gen;
    return r;
}

TEST(ChunkedPrefill, SlicesPromptUnderBudgetAndCompletesOnLastChunk)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.chunk_tokens = 32;
    Scheduler sched(cfg, pool);
    auto a = makeRequest(0, 0, 100, 4);
    sched.submit(&a);

    std::size_t processed = 0;
    std::size_t iterations = 0;
    bool saw_last = false;
    while (!saw_last) {
        auto it = sched.next();
        ASSERT_EQ(it.prefill.size(), 1u);
        EXPECT_TRUE(it.decode.empty()); // nothing decodes mid-prefill
        const auto &chunk = it.prefill[0];
        EXPECT_EQ(chunk.req, &a);
        EXPECT_LE(chunk.tokens, cfg.chunk_tokens);
        EXPECT_EQ(chunk.context, processed);
        processed += chunk.tokens;
        saw_last = chunk.last;
        ++iterations;
        ASSERT_LE(iterations, 8u) << "prefill failed to complete";
    }
    // Slices cover the prompt exactly; 100 tokens / 32-budget = 4.
    EXPECT_EQ(processed, 100u);
    EXPECT_EQ(iterations, 4u);
    EXPECT_TRUE(a.prefill_complete);
    // Prompt plus the slot of the token the final slice emits.
    EXPECT_EQ(pool.seqTokens(0), 101u);
    EXPECT_EQ(a.prefilled_tokens, 101u);

    // With the prefill done the next iteration decodes.
    auto it = sched.next();
    EXPECT_TRUE(it.prefill.empty());
    ASSERT_EQ(it.decode.size(), 1u);
    EXPECT_EQ(pool.seqTokens(0), 102u);
}

TEST(ChunkedPrefill, MixesDecodeAndPrefillInOneIteration)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.chunk_tokens = 16;
    Scheduler sched(cfg, pool);
    auto a = makeRequest(0, 0, 8, 8);
    sched.submit(&a);
    auto it = sched.next(); // a prefills whole prompt (8 <= 16)
    ASSERT_EQ(it.prefill.size(), 1u);
    EXPECT_TRUE(it.prefill[0].last);

    auto b = makeRequest(1, 1, 40, 4);
    sched.submit(&b);
    // One iteration now decodes a AND prefills a 16-token slice of b.
    it = sched.next();
    ASSERT_EQ(it.decode.size(), 1u);
    EXPECT_EQ(it.decode[0], &a);
    ASSERT_EQ(it.prefill.size(), 1u);
    EXPECT_EQ(it.prefill[0].req, &b);
    EXPECT_EQ(it.prefill[0].tokens, 16u);
    EXPECT_FALSE(it.prefill[0].last);
    EXPECT_FALSE(b.prefill_complete);
}

TEST(ChunkedPrefill, BudgetSpreadsAcrossContinueAndAdmission)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.chunk_tokens = 24;
    Scheduler sched(cfg, pool);
    auto a = makeRequest(0, 0, 40, 4);
    sched.submit(&a);
    ASSERT_EQ(sched.next().prefill.size(), 1u); // a: 24 of 40
    auto b = makeRequest(1, 1, 30, 4);
    sched.submit(&b);

    // a's remaining 16 tokens complete; the leftover 8-token budget
    // starts b.
    auto it = sched.next();
    ASSERT_EQ(it.prefill.size(), 2u);
    EXPECT_EQ(it.prefill[0].req, &a);
    EXPECT_EQ(it.prefill[0].tokens, 16u);
    EXPECT_TRUE(it.prefill[0].last);
    EXPECT_EQ(it.prefill[1].req, &b);
    EXPECT_EQ(it.prefill[1].tokens, 8u);
    EXPECT_FALSE(it.prefill[1].last);
}

TEST(ChunkedPrefill, SimulatorCompletesEveryRequestAndHoldsInvariants)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 5;
    cfg.workload.prompt_len_median = 1024;
    cfg.scheduler.chunk_tokens = 256;
    auto trace = generateWorkload(cfg.workload);
    ServingSimulator sim(cfg);
    auto report = sim.run(trace); // internal KV asserts run every iter
    EXPECT_EQ(report.completed_requests + report.rejected_requests,
              trace.size());
    for (const auto &r : trace) {
        if (r.state == RequestState::Rejected)
            continue;
        EXPECT_EQ(r.state, RequestState::Finished);
        EXPECT_EQ(r.generated, r.max_new_tokens);
        EXPECT_GE(r.first_token_us, r.arrival_us);
    }
}

TEST(ChunkedPrefill, InterleaveDeterministicAcrossThreadCounts)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4;
    cfg.workload.qps = 8;
    cfg.workload.duration_s = 5;
    cfg.workload.prompt_len_median = 1024;
    cfg.scheduler.chunk_tokens = 256;

    // The chunked interleave must be bit-identical whether the host
    // runtime is serial (VQLLM_THREADS=1 equivalent) or parallel.
    par::setThreads(1);
    auto serial = ServingSimulator(cfg).run();
    par::setThreads(0); // revert to VQLLM_THREADS / hardware
    auto parallel = ServingSimulator(cfg).run();
    EXPECT_EQ(serial.sim_time_us, parallel.sim_time_us);
    EXPECT_EQ(serial.busy_time_us, parallel.busy_time_us);
    EXPECT_EQ(serial.tbt.p99_us, parallel.tbt.p99_us);
    EXPECT_EQ(serial.ttft.p95_us, parallel.ttft.p95_us);
    EXPECT_EQ(serial.iterations, parallel.iterations);
    EXPECT_EQ(serial.preemptions, parallel.preemptions);

    // And runMany (which fans simulations out on the pool) must agree
    // with the direct runs.
    auto many = ServingSimulator::runMany({cfg, cfg});
    ASSERT_EQ(many.size(), 2u);
    EXPECT_EQ(many[0].sim_time_us, serial.sim_time_us);
    EXPECT_EQ(many[1].iterations, serial.iterations);
}

TEST(Workload, ArrivalGapsAreAlwaysFinite)
{
    WorkloadConfig cfg;
    cfg.qps = 2000; // dense trace: many uniform() draws
    cfg.duration_s = 5;
    cfg.seed = 99;
    auto trace = generateWorkload(cfg);
    ASSERT_GT(trace.size(), 5000u);
    double prev = 0;
    for (const auto &r : trace) {
        ASSERT_TRUE(std::isfinite(r.arrival_us));
        ASSERT_GE(r.arrival_us, prev);
        prev = r.arrival_us;
    }
}

TEST(Workload, StampsPrioritiesAndDeadlines)
{
    WorkloadConfig cfg;
    cfg.qps = 50;
    cfg.duration_s = 5;
    cfg.priority_levels = 3;
    cfg.ttft_deadline_us = 2e6;
    cfg.tbt_deadline_us = 150e3;
    auto trace = generateWorkload(cfg);
    ASSERT_FALSE(trace.empty());
    bool nonzero_priority = false;
    for (const auto &r : trace) {
        EXPECT_GE(r.priority, 0);
        EXPECT_LT(r.priority, 3);
        nonzero_priority |= r.priority > 0;
        EXPECT_EQ(r.ttft_deadline_us, 2e6);
        EXPECT_EQ(r.tbt_deadline_us, 150e3);
    }
    EXPECT_TRUE(nonzero_priority);
}

} // namespace
} // namespace vqllm::serving
