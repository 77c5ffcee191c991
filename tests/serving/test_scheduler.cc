/**
 * @file
 * Tests for the continuous-batching scheduler: batch formation, prefill
 * admission, preemption under KV pressure, KV accounting over seeded
 * random op sequences, and end-to-end determinism of the simulator
 * under a fixed seed.
 */
#include <gtest/gtest.h>

#include <deque>
#include <optional>

#include "common/rng.h"
#include "serving/prefix_cache.h"
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

TEST(Scheduler, PrefillBeforeDecode)
{
    KvBlockPool pool(poolCfg(64));
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 8, 4);
    sched.submit(&a);

    auto it1 = sched.next();
    ASSERT_EQ(it1.prefill.size(), 1u);
    EXPECT_TRUE(it1.decode.empty());
    EXPECT_EQ(it1.prefill[0].tokens, 8u); // prompt tokens processed
    EXPECT_TRUE(it1.prefill[0].last);
    EXPECT_EQ(a.state, RequestState::Running);
    // Prompt plus the slot of the first token the prefill emits.
    EXPECT_EQ(pool.seqTokens(0), 9u);

    auto it2 = sched.next();
    EXPECT_TRUE(it2.prefill.empty());
    ASSERT_EQ(it2.decode.size(), 1u);
    EXPECT_EQ(pool.seqTokens(0), 10u); // decode appended one token
}

TEST(Scheduler, PrefillBatchRespectsTokenBudget)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.max_prefill_tokens = 10;
    Scheduler sched(cfg, pool);
    auto a = makeRequest(0, 0, 6, 2);
    auto b = makeRequest(1, 1, 4, 2);
    auto c = makeRequest(2, 2, 4, 2);
    sched.submit(&a);
    sched.submit(&b);
    sched.submit(&c);

    auto it = sched.next();
    // a (6) + b (4) hit the 10-token budget; c waits.
    ASSERT_EQ(it.prefill.size(), 2u);
    EXPECT_EQ(it.prefill[0].req, &a);
    EXPECT_EQ(it.prefill[1].req, &b);
    EXPECT_EQ(sched.waitingCount(), 1u);
}

TEST(Scheduler, OversizedPromptAdmittedAlone)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.max_prefill_tokens = 8;
    Scheduler sched(cfg, pool);
    auto a = makeRequest(0, 0, 20, 2); // longer than the budget
    sched.submit(&a);
    auto it = sched.next();
    ASSERT_EQ(it.prefill.size(), 1u);
}

TEST(Scheduler, AdmissionIsFcfsNoHoleSkipping)
{
    KvBlockPool pool(poolCfg(8)); // 32 token slots
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 24, 2);
    auto b = makeRequest(1, 1, 24, 2); // does not fit beside a
    auto c = makeRequest(2, 2, 4, 2);  // would fit, but is younger than b
    sched.submit(&a);
    sched.submit(&b);
    sched.submit(&c);

    auto it = sched.next();
    ASSERT_EQ(it.prefill.size(), 1u);
    EXPECT_EQ(it.prefill[0].req, &a);
    // b blocks the queue head; c must not jump it.
    auto it2 = sched.next();
    EXPECT_TRUE(it2.prefill.empty());
    EXPECT_EQ(it2.decode.size(), 1u);
    EXPECT_EQ(sched.waitingCount(), 2u);
}

TEST(Scheduler, ImpossibleRequestRejectedAtSubmit)
{
    KvBlockPool pool(poolCfg(4)); // 16 token slots total
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 20, 4); // can never fit
    sched.submit(&a);
    EXPECT_EQ(a.state, RequestState::Rejected);
    EXPECT_EQ(sched.rejectedCount(), 1u);
    EXPECT_TRUE(sched.idle());
}

TEST(Scheduler, DecodePreemptsLatestArrivalUnderPressure)
{
    KvBlockPool pool(poolCfg(4, 4)); // 4 blocks of 4 tokens
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 7, 8); // 7+1 tokens = 2 blocks, full
    auto b = makeRequest(1, 1, 7, 8); // 7+1 tokens = 2 blocks, full
    sched.submit(&a);
    sched.submit(&b);
    ASSERT_EQ(sched.next().prefill.size(), 2u);

    // Both sequences are block-aligned; the first decode step needs two
    // fresh blocks but none are free: b (latest arrival) is preempted
    // and a decodes.
    auto it = sched.next();
    EXPECT_EQ(it.preempted, 1u);
    ASSERT_EQ(it.decode.size(), 1u);
    EXPECT_EQ(it.decode[0], &a);
    EXPECT_EQ(b.state, RequestState::Preempted);
    EXPECT_EQ(b.preemptions, 1u);
    EXPECT_EQ(pool.seqBlocks(1), 0u); // b's blocks reclaimed
    EXPECT_EQ(sched.waitingCount(), 1u);
}

TEST(Scheduler, PreemptedRequestReadmittedWithContext)
{
    KvBlockPool pool(poolCfg(4, 4));
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 7, 8);
    auto b = makeRequest(1, 1, 7, 8);
    sched.submit(&a);
    sched.submit(&b);
    sched.next(); // prefill both
    sched.next(); // decode: preempts b
    sched.retire(&a);

    // With a gone, b re-prefills its full context (7 prompt tokens; it
    // had not decoded yet) ahead of any younger request.
    auto it = sched.next();
    ASSERT_EQ(it.prefill.size(), 1u);
    EXPECT_EQ(it.prefill[0].req, &b);
    EXPECT_EQ(b.state, RequestState::Running);
    EXPECT_EQ(pool.seqTokens(1), 8u); // context + first-token slot
}

TEST(Scheduler, SelfPreemptionWhenDecodingHeadIsNewestArrival)
{
    KvBlockPool pool(poolCfg(8, 4)); // 32 token slots
    Scheduler sched(SchedulerConfig{}, pool);
    // Half the pool is held by a sequence the scheduler does not
    // manage, so the lone running request eventually runs out of
    // blocks and — being the newest (only) arrival — must pick itself
    // as the preemption victim without crashing or livelocking.
    ASSERT_TRUE(pool.allocSequence(999, 16));
    auto a = makeRequest(0, 0, 8, 16);
    sched.submit(&a);
    ASSERT_EQ(sched.next().prefill.size(), 1u);

    Scheduler::Iteration it;
    for (int i = 0; i < 20 && it.preempted == 0; ++i)
        it = sched.next();
    ASSERT_EQ(it.preempted, 1u);
    EXPECT_TRUE(it.decode.empty()); // the self-preempted step emits nothing
    EXPECT_EQ(a.state, RequestState::Preempted);
    EXPECT_EQ(a.preemptions, 1u);
    EXPECT_EQ(pool.seqTokens(0), 0u);
    EXPECT_EQ(sched.waitingCount(), 1u);
    EXPECT_EQ(sched.runningCount(), 0u);
}

TEST(Scheduler, PreemptedOlderThanAllRunningReadmitsFirst)
{
    KvBlockPool pool(poolCfg(4, 4));
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 7, 8);
    auto b = makeRequest(1, 1, 7, 8);
    auto c = makeRequest(2, 2, 8, 4); // younger, still waiting
    sched.submit(&a);
    sched.submit(&b);
    sched.submit(&c);
    ASSERT_EQ(sched.next().prefill.size(), 2u); // a + b fill the pool
    auto it = sched.next();                     // decode preempts b
    ASSERT_EQ(it.preempted, 1u);
    EXPECT_EQ(b.state, RequestState::Preempted);
    sched.retire(&a);

    // b (arrival 1) is now older than everything running (nothing) and
    // waiting (c, arrival 2): it must re-admit ahead of c.
    auto it2 = sched.next();
    ASSERT_EQ(it2.prefill.size(), 1u);
    EXPECT_EQ(it2.prefill[0].req, &b);
    EXPECT_EQ(c.state, RequestState::Waiting);
}

TEST(Scheduler, RetireReleasesBlocksAndRunningSlot)
{
    KvBlockPool pool(poolCfg(16));
    Scheduler sched(SchedulerConfig{}, pool);
    auto a = makeRequest(0, 0, 8, 2);
    sched.submit(&a);
    sched.next();
    EXPECT_EQ(sched.runningCount(), 1u);
    sched.retire(&a);
    EXPECT_EQ(sched.runningCount(), 0u);
    EXPECT_EQ(pool.usedBlocks(), 0u);
    EXPECT_TRUE(sched.idle());
}

TEST(Scheduler, MaxBatchCapsAdmission)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.max_batch = 2;
    cfg.max_prefill_tokens = 1024;
    Scheduler sched(cfg, pool);
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(makeRequest(i, i, 4, 2));
    for (auto &r : reqs)
        sched.submit(&r);
    auto it = sched.next();
    EXPECT_EQ(it.prefill.size(), 2u);
    EXPECT_EQ(sched.waitingCount(), 2u);
}

// ---------------------------------------------------------------------
// Simulator-level determinism and interleaving.

TEST(ServingSimulator, DeterministicUnderFixedSeed)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4; // cheap pricing, fast test
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 5;
    cfg.workload.seed = 123;

    auto r1 = ServingSimulator(cfg).run();
    auto r2 = ServingSimulator(cfg).run();
    EXPECT_EQ(r1.sim_time_us, r2.sim_time_us);
    EXPECT_EQ(r1.ttft.p95_us, r2.ttft.p95_us);
    EXPECT_EQ(r1.tbt.p99_us, r2.tbt.p99_us);
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_EQ(r1.preemptions, r2.preemptions);
    EXPECT_EQ(r1.kv_peak_bytes, r2.kv_peak_bytes);
}

TEST(ServingSimulator, DifferentSeedsDiverge)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 5;
    cfg.workload.seed = 1;
    auto r1 = ServingSimulator(cfg).run();
    cfg.workload.seed = 2;
    auto r2 = ServingSimulator(cfg).run();
    EXPECT_NE(r1.sim_time_us, r2.sim_time_us);
}

TEST(ServingSimulator, CompletesEveryNonRejectedRequest)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::FP16;
    cfg.workload.qps = 4;
    cfg.workload.duration_s = 5;
    auto trace = generateWorkload(cfg.workload);
    ServingSimulator sim(cfg);
    auto report = sim.run(trace);
    EXPECT_EQ(report.completed_requests + report.rejected_requests,
              trace.size());
    for (const auto &r : trace) {
        if (r.state == RequestState::Rejected)
            continue;
        EXPECT_EQ(r.state, RequestState::Finished);
        EXPECT_EQ(r.generated, r.max_new_tokens);
        EXPECT_GE(r.first_token_us, r.arrival_us);
        EXPECT_GE(r.finish_us, r.first_token_us);
    }
}

TEST(ServingSimulator, TokensPerSecondConsistentWithCounters)
{
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4;
    cfg.workload.qps = 4;
    cfg.workload.duration_s = 5;
    auto report = ServingSimulator(cfg).run();
    ASSERT_GT(report.sim_time_us, 0.0);
    ASSERT_GT(report.busy_time_us, 0.0);
    // Throughput is over busy time — idle fast-forward gaps between
    // arrivals must not dilute it.
    EXPECT_NEAR(report.tokens_per_sec,
                static_cast<double>(report.decode_tokens) /
                    (report.busy_time_us / 1e6),
                1e-9);
    EXPECT_LE(report.busy_time_us, report.sim_time_us);
    EXPECT_NEAR(report.utilization,
                report.busy_time_us / report.sim_time_us, 1e-12);
}

TEST(ServingSimulator, IdleGapsDoNotDiluteThroughput)
{
    // A sparse trace (well under saturation) fast-forwards between
    // requests: busy time must be well below the makespan and the
    // throughput counter must still reflect the busy rate.
    SimulatorConfig cfg;
    cfg.scheme = llm::QuantScheme::EWQ4;
    cfg.workload.qps = 0.5;
    cfg.workload.duration_s = 20;
    auto report = ServingSimulator(cfg).run();
    ASSERT_GT(report.completed_requests, 0u);
    EXPECT_LT(report.busy_time_us, 0.9 * report.sim_time_us);
    EXPECT_GT(report.tokens_per_sec,
              static_cast<double>(report.decode_tokens) /
                  (report.sim_time_us / 1e6));
}

// ---------------------------------------------------------------------
// Property: seeded random op sequences

/**
 * One seeded random sequence of scheduler ops over a pool tight enough
 * to force preemption: submits (plain, prefix-bearing and KV-imported
 * requests) and steps (next(), then token emission and retire, as
 * SimulatorCore::step does them).  After every op the KV accounting
 * SimulatorCore::step asserts must hold; a drained run leaks no block.
 */
class SchedulerOps
{
  public:
    SchedulerOps(std::uint64_t seed, PolicyKind policy,
                 std::size_t chunk_tokens, bool prefix_cache)
        : rng_(seed), pool_(poolCfg(40)),
          sched_({.max_batch = 6,
                  .max_prefill_tokens = 64,
                  .chunk_tokens = chunk_tokens,
                  .policy = policy},
                 pool_)
    {
        if (prefix_cache) {
            cache_.emplace(pool_, 6);
            sched_.setPrefixCache(&*cache_);
        }
    }

    void
    run(int ops)
    {
        // Out of 4: submit 1, step 3 (an idle scheduler submits).
        for (int i = 0; i < ops; ++i) {
            if (sched_.idle() || rng_.uniformInt(4) == 0)
                submit();
            else
                ASSERT_NO_FATAL_FAILURE(step());
            ASSERT_NO_FATAL_FAILURE(check());
        }
    }

    /** Step until idle, then drop the cache: every request finished
     *  or was rejected, and every block is back in the pool. */
    void
    drain()
    {
        for (int guard = 0; !sched_.idle(); ++guard) {
            ASSERT_LT(guard, 100000) << "scheduler never drains";
            ASSERT_NO_FATAL_FAILURE(step());
            ASSERT_NO_FATAL_FAILURE(check());
        }
        for (const Request &r : reqs_)
            ASSERT_TRUE(r.state == RequestState::Finished ||
                        r.state == RequestState::Rejected)
                << "request " << r.id;
        if (cache_)
            cache_->clear();
        EXPECT_EQ(pool_.usedBlocks(), 0u);
    }

    std::uint64_t preemptions() const { return preemptions_; }
    std::uint64_t imports() const { return imports_; }

    std::uint64_t
    prefixHits() const
    {
        return cache_ ? cache_->stats().hits : 0;
    }

  private:
    void
    submit()
    {
        Request &r = reqs_.emplace_back();
        r.id = reqs_.size() - 1;
        r.arrival_us = now_;
        r.prompt_len = 1 + rng_.uniformInt(40);
        r.max_new_tokens = 1 + rng_.uniformInt(16);
        r.priority = static_cast<int>(rng_.uniformInt(3));
        switch (rng_.uniformInt(4)) {
        case 0:
            // A fleet handoff: the prefill replica already emitted the
            // first token.
            r.kv_imported = true;
            r.generated = 1;
            r.first_token_us = r.last_token_us = now_;
            ++r.max_new_tokens;
            break;
        case 1: {
            // Groups 0 and 2 end in a partial block, group 1 is
            // block-aligned.
            static constexpr std::size_t kPrefix[] = {18, 24, 30};
            const std::uint64_t group = rng_.uniformInt(3);
            r.prefix_group = static_cast<std::int64_t>(group);
            r.prefix_tokens = kPrefix[group];
            r.prompt_len += r.prefix_tokens;
            break;
        }
        default:
            break;
        }
        sched_.submit(&r);
        if (r.kv_imported && r.state != RequestState::Rejected)
            ++imports_;
    }

    void
    step()
    {
        Scheduler::Iteration it = sched_.next();
        // A busy scheduler always forms work (SimulatorCore::step
        // panics otherwise).
        ASSERT_FALSE(it.empty());
        preemptions_ += it.preempted;
        now_ += 1;
        std::vector<Request *> finished;
        auto emit = [&](Request *r) {
            ++r->generated;
            if (r->first_token_us < 0)
                r->first_token_us = now_;
            r->last_token_us = now_;
            if (r->done())
                finished.push_back(r);
        };
        for (const auto &chunk : it.prefill)
            if (chunk.last)
                emit(chunk.req);
        for (Request *r : it.decode)
            emit(r);
        for (Request *r : finished)
            sched_.retire(r);
    }

    void
    check() const
    {
        std::size_t running_tokens = 0;
        for (const Request *r : sched_.running()) {
            ASSERT_EQ(r->state, RequestState::Running);
            ASSERT_EQ(pool_.seqTokens(r->id), r->prefilled_tokens)
                << "request " << r->id;
            if (r->prefill_complete) {
                ASSERT_EQ(r->prefilled_tokens, r->contextTokens())
                    << "request " << r->id;
            }
            running_tokens += r->prefilled_tokens;
        }
        for (const Request *r : sched_.waiting()) {
            ASSERT_TRUE(r->state == RequestState::Waiting ||
                        r->state == RequestState::Preempted);
            ASSERT_EQ(pool_.seqTokens(r->id), 0u)
                << "waiting request " << r->id << " holds KV";
        }
        // Shared prefix blocks store their tokens once in the pool but
        // once per owner in the running sum.
        if (cache_)
            ASSERT_LE(pool_.storedTokens(),
                      running_tokens + cache_->cachedTokens());
        else
            ASSERT_EQ(pool_.storedTokens(), running_tokens);
    }

    Rng rng_;
    KvBlockPool pool_;
    /** After the pool: its destructor unregisters the reclaimer. */
    std::optional<PrefixCache> cache_;
    Scheduler sched_;
    /** Submitted requests (a deque keeps their addresses stable). */
    std::deque<Request> reqs_;
    double now_ = 0;
    std::uint64_t preemptions_ = 0;
    std::uint64_t imports_ = 0;
};

TEST(SchedulerProperty, RandomOpSequencesKeepKvAccounting)
{
    std::uint64_t preemptions = 0;
    std::uint64_t imports = 0;
    std::uint64_t prefix_hits = 0;
    for (PolicyKind policy :
         {PolicyKind::FCFS, PolicyKind::Priority, PolicyKind::EDF}) {
        for (std::size_t chunk_tokens : {0u, 16u}) {
            for (bool prefix_cache : {false, true}) {
                for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                    SCOPED_TRACE(testing::Message()
                                 << policyKindName(policy) << " chunk "
                                 << chunk_tokens << " prefix cache "
                                 << prefix_cache << " seed " << seed);
                    SchedulerOps ops(seed, policy, chunk_tokens,
                                     prefix_cache);
                    ASSERT_NO_FATAL_FAILURE(ops.run(300));
                    ASSERT_NO_FATAL_FAILURE(ops.drain());
                    preemptions += ops.preemptions();
                    imports += ops.imports();
                    prefix_hits += ops.prefixHits();
                }
            }
        }
    }
    // The sequences reach the paths they claim to cover.
    EXPECT_GT(preemptions, 0u);
    EXPECT_GT(imports, 0u);
    EXPECT_GT(prefix_hits, 0u);
}

// Workload generator sanity.

TEST(Workload, PoissonTraceIsSortedAndSeeded)
{
    WorkloadConfig cfg;
    cfg.qps = 10;
    cfg.duration_s = 10;
    cfg.seed = 7;
    auto t1 = generateWorkload(cfg);
    auto t2 = generateWorkload(cfg);
    ASSERT_EQ(t1.size(), t2.size());
    ASSERT_FALSE(t1.empty());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].arrival_us, t2[i].arrival_us);
        EXPECT_EQ(t1[i].prompt_len, t2[i].prompt_len);
        EXPECT_EQ(t1[i].codebook_group, t2[i].codebook_group);
        if (i > 0) {
            EXPECT_GE(t1[i].arrival_us, t1[i - 1].arrival_us);
        }
        EXPECT_GE(t1[i].prompt_len, cfg.prompt_len_min);
        EXPECT_LE(t1[i].prompt_len, cfg.prompt_len_max);
        EXPECT_LT(t1[i].codebook_group, cfg.num_codebook_groups);
    }
    // ~qps * duration requests on average.
    EXPECT_GT(t1.size(), 50u);
    EXPECT_LT(t1.size(), 200u);
}

} // namespace
} // namespace vqllm::serving
