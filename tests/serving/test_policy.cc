/**
 * @file
 * Tests for the scheduling policies: FCFS / priority / EDF order
 * semantics and their effect on scheduler admission order and
 * preemption-victim selection.
 */
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"
#include "serving/policy.h"
#include "serving/scheduler.h"

namespace vqllm::serving {
namespace {

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

KvBlockPoolConfig
poolCfg(std::uint64_t blocks, std::size_t block_tokens = 4)
{
    KvBlockPoolConfig cfg;
    cfg.block_tokens = block_tokens;
    cfg.bytes_per_token = 1;
    cfg.capacity_bytes = blocks * block_tokens;
    return cfg;
}

TEST(Policy, FcfsOrdersByArrivalWithIdTiebreak)
{
    const auto k = PolicyKind::FCFS;
    auto a = makeRequest(0, 10, 4, 4);
    auto b = makeRequest(1, 20, 4, 4);
    EXPECT_TRUE(admitBefore(k, a, b));
    EXPECT_FALSE(admitBefore(k, b, a));
    auto c = makeRequest(2, 10, 4, 4); // same arrival as a: id breaks
    EXPECT_TRUE(admitBefore(k, a, c));
    EXPECT_FALSE(admitBefore(k, c, a));
}

TEST(Policy, PriorityBeatsArrivalAndEvictsLowestFirst)
{
    const auto k = PolicyKind::Priority;
    auto low = makeRequest(0, 0, 4, 4);
    auto high = makeRequest(1, 100, 4, 4);
    high.priority = 5;
    EXPECT_TRUE(admitBefore(k, high, low));
    EXPECT_FALSE(admitBefore(k, low, high)); // lowest evicted first
    // Equal priority falls back to arrival order.
    auto low2 = makeRequest(2, 50, 4, 4);
    EXPECT_TRUE(admitBefore(k, low, low2));
    EXPECT_FALSE(admitBefore(k, low2, low));
}

TEST(Policy, EdfTracksTtftThenTbtDeadline)
{
    const auto k = PolicyKind::EDF;
    auto a = makeRequest(0, 0, 4, 4);
    a.ttft_deadline_us = 1000;
    auto b = makeRequest(1, 500, 4, 4);
    b.ttft_deadline_us = 200;
    // b's first-token deadline (700) beats a's (1000).
    EXPECT_EQ(edfDeadlineUs(a), 1000);
    EXPECT_EQ(edfDeadlineUs(b), 700);
    EXPECT_TRUE(admitBefore(k, b, a));
    EXPECT_FALSE(admitBefore(k, a, b)); // most slack evicted first

    // Once a token is out, the TBT deadline takes over.
    a.generated = 1;
    a.last_token_us = 2000;
    a.tbt_deadline_us = 100;
    EXPECT_EQ(edfDeadlineUs(a), 2100);
    EXPECT_TRUE(admitBefore(k, b, a));
}

TEST(Policy, NamesRoundTrip)
{
    for (auto kind : {PolicyKind::FCFS, PolicyKind::Priority,
                      PolicyKind::EDF}) {
        PolicyKind parsed;
        ASSERT_TRUE(parsePolicyKind(policyKindName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    PolicyKind out;
    EXPECT_FALSE(parsePolicyKind("rr", &out));
}

// Reference: per-policy comparator classes that write admission and
// eviction as two separate orders.  admitBefore(kind, ...) must agree
// with both, eviction being its reverse.
class ReferencePolicy
{
  public:
    virtual ~ReferencePolicy() = default;
    virtual bool admitBefore(const Request &a, const Request &b) const = 0;
    virtual bool evictBefore(const Request &a, const Request &b) const = 0;
};

bool
arrivesBefore(const Request &a, const Request &b)
{
    if (a.arrival_us != b.arrival_us)
        return a.arrival_us < b.arrival_us;
    return a.id < b.id;
}

class ReferenceFcfs final : public ReferencePolicy
{
  public:
    bool
    admitBefore(const Request &a, const Request &b) const override
    {
        return arrivesBefore(a, b);
    }

    bool
    evictBefore(const Request &a, const Request &b) const override
    {
        return arrivesBefore(b, a);
    }
};

class ReferencePriority final : public ReferencePolicy
{
  public:
    bool
    admitBefore(const Request &a, const Request &b) const override
    {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return arrivesBefore(a, b);
    }

    bool
    evictBefore(const Request &a, const Request &b) const override
    {
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return arrivesBefore(b, a);
    }
};

class ReferenceEdf final : public ReferencePolicy
{
  public:
    bool
    admitBefore(const Request &a, const Request &b) const override
    {
        double da = edfDeadlineUs(a), db = edfDeadlineUs(b);
        if (da != db)
            return da < db;
        return arrivesBefore(a, b);
    }

    bool
    evictBefore(const Request &a, const Request &b) const override
    {
        double da = edfDeadlineUs(a), db = edfDeadlineUs(b);
        if (da != db)
            return da > db;
        return arrivesBefore(b, a);
    }
};

TEST(Policy, OneOrderMatchesReferenceAdmissionAndEviction)
{
    // Small value ranges make ties in arrival, priority and deadline
    // (and so every tiebreak level) common.
    Rng rng(42);
    auto draw = [&rng](std::uint64_t id) {
        Request r = makeRequest(id, static_cast<double>(rng.uniformInt(4)),
                                4, 4);
        r.priority = static_cast<int>(rng.uniformInt(3));
        r.ttft_deadline_us = static_cast<double>(rng.uniformInt(3));
        r.tbt_deadline_us = static_cast<double>(rng.uniformInt(3));
        r.generated = rng.uniformInt(2);
        r.last_token_us = static_cast<double>(rng.uniformInt(4));
        return r;
    };
    const ReferenceFcfs fcfs;
    const ReferencePriority priority;
    const ReferenceEdf edf;
    const std::pair<PolicyKind, const ReferencePolicy *> policies[] = {
        {PolicyKind::FCFS, &fcfs},
        {PolicyKind::Priority, &priority},
        {PolicyKind::EDF, &edf}};
    for (int i = 0; i < 4000; ++i) {
        Request a = draw(rng.uniformInt(3));
        Request b = draw(rng.uniformInt(3));
        for (const auto &[kind, ref] : policies) {
            SCOPED_TRACE(policyKindName(kind));
            EXPECT_EQ(admitBefore(kind, a, b), ref->admitBefore(a, b));
            EXPECT_EQ(admitBefore(kind, b, a), ref->evictBefore(a, b));
        }
    }
}

TEST(PolicyScheduler, PriorityAdmitsHighPriorityFirst)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.policy = PolicyKind::Priority;
    Scheduler sched(cfg, pool);
    auto low = makeRequest(0, 0, 4, 2);
    auto high = makeRequest(1, 1, 4, 2); // younger but urgent
    high.priority = 3;
    sched.submit(&low);
    sched.submit(&high);
    auto it = sched.next();
    ASSERT_EQ(it.prefill.size(), 2u);
    EXPECT_EQ(it.prefill[0].req, &high);
    EXPECT_EQ(it.prefill[1].req, &low);
}

TEST(PolicyScheduler, PriorityEvictsLowestPriorityNotLatestArrival)
{
    KvBlockPool pool(poolCfg(4, 4));
    SchedulerConfig cfg;
    cfg.policy = PolicyKind::Priority;
    Scheduler sched(cfg, pool);
    auto low = makeRequest(0, 0, 7, 8); // oldest, lowest priority
    auto high = makeRequest(1, 1, 7, 8);
    high.priority = 3;
    sched.submit(&low);
    sched.submit(&high);
    ASSERT_EQ(sched.next().prefill.size(), 2u); // pool now full

    // Under FCFS the younger `high` would be the victim; the priority
    // policy protects it and evicts `low` instead.
    auto it = sched.next();
    EXPECT_EQ(it.preempted, 1u);
    EXPECT_EQ(low.state, RequestState::Preempted);
    ASSERT_EQ(it.decode.size(), 1u);
    EXPECT_EQ(it.decode[0], &high);
}

TEST(PolicyScheduler, HighPriorityNeverSelfPreemptsPastProtectedLow)
{
    // Regression: decode used to visit sequences in arrival order, so
    // an older low-priority sequence could decode first (becoming
    // eviction-protected for the iteration) and force a younger
    // high-priority sequence under pressure to preempt *itself*.
    // Decode must visit most-protected-first instead.
    KvBlockPool pool(poolCfg(4, 4));
    SchedulerConfig cfg;
    cfg.policy = PolicyKind::Priority;
    Scheduler sched(cfg, pool);
    auto low = makeRequest(0, 0, 6, 8); // older; 7 slots -> 2 blocks
    auto high = makeRequest(1, 1, 7, 8); // 8 slots -> 2 blocks, no slack
    high.priority = 5;
    sched.submit(&low);
    sched.submit(&high);
    ASSERT_EQ(sched.next().prefill.size(), 2u); // pool full

    // low's tail block has one free slot, high's has none: only high
    // hits pressure this iteration, and the victim must still be low.
    auto it = sched.next();
    EXPECT_EQ(it.preempted, 1u);
    EXPECT_EQ(low.state, RequestState::Preempted);
    EXPECT_EQ(high.state, RequestState::Running);
    ASSERT_EQ(it.decode.size(), 1u);
    EXPECT_EQ(it.decode[0], &high);
}

TEST(PolicyScheduler, EdfAdmitsTightestDeadlineFirst)
{
    KvBlockPool pool(poolCfg(64));
    SchedulerConfig cfg;
    cfg.policy = PolicyKind::EDF;
    Scheduler sched(cfg, pool);
    auto relaxed = makeRequest(0, 0, 4, 2);
    relaxed.ttft_deadline_us = 5e6;
    auto urgent = makeRequest(1, 10, 4, 2);
    urgent.ttft_deadline_us = 1e3;
    sched.submit(&relaxed);
    sched.submit(&urgent);
    auto it = sched.next();
    ASSERT_EQ(it.prefill.size(), 2u);
    EXPECT_EQ(it.prefill[0].req, &urgent);
}

} // namespace
} // namespace vqllm::serving
