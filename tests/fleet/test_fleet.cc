/**
 * @file
 * Fleet end-to-end tests: a 1-replica aggregated fleet must reproduce
 * the bare ServingSimulator report bit-for-bit, every fleet report
 * must be byte-identical across host thread counts and repeats, and
 * disaggregated runs must satisfy the handoff bookkeeping invariants
 * (every multi-token request hands off exactly once, transfer bytes
 * follow the sender's KV scheme, origin-level accounting closes, also
 * when entry or decode replicas reject).
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "serving/simulator.h"

namespace vqllm::fleet {
namespace {

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

serving::SimulatorConfig
replicaSim()
{
    serving::SimulatorConfig sim;
    sim.scheme = llm::QuantScheme::FP16;
    sim.kv_scheme = llm::KvScheme::VQ4;
    sim.scheduler.chunk_tokens = 512;
    return sim;
}

/** A small but non-trivial fleet: bursty arrivals so routing faces
 *  load imbalance, short window so the suite stays fast. */
FleetConfig
fleetConfig(std::size_t replicas, RouterPolicy router, bool disagg)
{
    FleetConfig cfg;
    cfg.router = router;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 4;
    cfg.workload.arrival = serving::ArrivalPattern::Bursty;
    const std::size_t prefill_n = (replicas + 1) / 2;
    for (std::size_t i = 0; i < replicas; ++i) {
        ReplicaConfig rep;
        rep.sim = replicaSim();
        rep.role = !disagg         ? ReplicaRole::Aggregated
                   : i < prefill_n ? ReplicaRole::Prefill
                                   : ReplicaRole::Decode;
        cfg.replicas.push_back(rep);
    }
    return cfg;
}

// ---------------------------------------------------------------------
// 1-replica parity: the fleet's event loop must be the bare driver.

TEST(FleetParity, OneAggregatedReplicaMatchesBareSimulatorBitwise)
{
    serving::SimulatorConfig sim = replicaSim();
    sim.workload.qps = 6;
    sim.workload.duration_s = 4;
    auto bare = serving::ServingSimulator(sim).run();

    FleetConfig cfg;
    cfg.workload = sim.workload;
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Aggregated});
    auto fleet_report = FleetSimulator(cfg).run();

    ASSERT_EQ(fleet_report.replicas.size(), 1u);
    // json() renders every double at %.17g, so string equality is
    // bit-identity of the full report.
    EXPECT_EQ(fleet_report.replicas[0].report.json(), bare.json());
    EXPECT_EQ(fleet_report.completed_requests, bare.completed_requests);
    EXPECT_EQ(fleet_report.handoffs, 0u);
    EXPECT_EQ(fleet_report.kv_transfer_bytes, 0u);
}

TEST(FleetParity, ParityHoldsUnderPoissonAndPriorityPolicies)
{
    serving::SimulatorConfig sim = replicaSim();
    sim.workload.qps = 8;
    sim.workload.duration_s = 3;
    sim.workload.arrival = serving::ArrivalPattern::Diurnal;
    auto bare = serving::ServingSimulator(sim).run();

    FleetConfig cfg;
    cfg.workload = sim.workload;
    cfg.router = RouterPolicy::SloAware; // irrelevant at 1 replica
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Aggregated});
    auto fleet_report = FleetSimulator(cfg).run();
    EXPECT_EQ(fleet_report.replicas[0].report.json(), bare.json());
}

// ---------------------------------------------------------------------
// Determinism across host thread counts and repeats.

TEST(FleetDeterminism, ReportsAreByteIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    for (RouterPolicy router :
         {RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded,
          RouterPolicy::PrefixAffinity, RouterPolicy::SloAware}) {
        for (bool disagg : {false, true}) {
            std::string first;
            for (int threads : {1, 4, 1, 4}) {
                par::setThreads(threads);
                auto report =
                    FleetSimulator(fleetConfig(3, router, disagg))
                        .run();
                if (first.empty())
                    first = report.json();
                else
                    EXPECT_EQ(report.json(), first)
                        << routerPolicyName(router) << " disagg="
                        << disagg << " threads=" << threads;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Routing bookkeeping.

TEST(FleetRouting, RoundRobinSpreadsEntriesEvenly)
{
    auto report =
        FleetSimulator(fleetConfig(3, RouterPolicy::RoundRobin, false))
            .run();
    ASSERT_EQ(report.replicas.size(), 3u);
    std::uint64_t lo = UINT64_MAX, hi = 0, total = 0;
    for (const auto &rep : report.replicas) {
        lo = std::min(lo, rep.routed);
        hi = std::max(hi, rep.routed);
        total += rep.routed;
    }
    EXPECT_EQ(total, report.completed_requests +
                         report.rejected_requests);
    EXPECT_LE(hi - lo, 1u);
    EXPECT_FALSE(report.disaggregated);
    EXPECT_EQ(report.handoffs, 0u);
    EXPECT_EQ(report.kv_transfer_bytes, 0u);
    EXPECT_DOUBLE_EQ(report.util_imbalance,
                     report.util_max - report.util_min);
}

TEST(FleetRouting, UndeliveredBacklogCountsAsLoad)
{
    // Simultaneous arrivals all route before any replica advances, so
    // each replica's load is only its routed-but-undelivered backlog.
    // Least-loaded alternates equal requests only if that backlog
    // counts; without it every request would pick replica 0.
    auto cfg = fleetConfig(2, RouterPolicy::LeastLoaded, false);
    std::vector<serving::Request> trace(6);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].arrival_us = 1e5;
        trace[i].prompt_len = 256;
        trace[i].max_new_tokens = 16;
    }
    auto report = FleetSimulator(cfg).run(trace);
    EXPECT_EQ(report.replicas[0].routed, 3u);
    EXPECT_EQ(report.replicas[1].routed, 3u);
    EXPECT_EQ(report.completed_requests, trace.size());
}

// ---------------------------------------------------------------------
// Rejections: every other fleet test and golden rejects nothing.

/** A prompt no replica's KV pool can ever hold. */
constexpr std::size_t kNeverFit = 50'000'000;

std::uint64_t
counterValue(const obs::MetricsRegistry &reg, const std::string &name)
{
    const obs::Counter *c = reg.findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : 0;
}

TEST(FleetRejections, EntryReplicasRejectNeverFitPrompts)
{
    auto cfg = fleetConfig(2, RouterPolicy::RoundRobin, false);
    obs::MetricsRegistry reg;
    cfg.metrics = &reg;
    auto trace = serving::generateWorkload(cfg.workload);
    ASSERT_GE(trace.size(), 6u);
    std::uint64_t never_fit = 0;
    for (std::size_t i = 0; i < trace.size(); i += 3, ++never_fit)
        trace[i].prompt_len = kNeverFit;
    auto report = FleetSimulator(cfg).run(trace);

    EXPECT_EQ(report.rejected_requests, never_fit);
    EXPECT_EQ(report.handoff_rejects, 0u);
    EXPECT_EQ(report.completed_requests + report.rejected_requests,
              trace.size());
    EXPECT_EQ(report.replicas[0].report.rejected_requests +
                  report.replicas[1].report.rejected_requests,
              never_fit);
    EXPECT_EQ(counterValue(reg, "fleet.router.rejected"), never_fit);
    EXPECT_EQ(counterValue(reg, "fleet.router.handoff_rejects"), 0u);
}

TEST(FleetRejections, DecodeReplicaRejectsImportsItCannotHold)
{
    // Replica 0 prefills on 24 GB; replica 1 decodes on an HBM budget
    // that leaves a KV pool of ~6k tokens.  Every generated request
    // (prompt <= 4096, output <= 1024 tokens) fits both; a 12k-token
    // prompt prefills on replica 0 but its imported context can never
    // fit replica 1, so its handoff is rejected there.
    auto cfg = fleetConfig(2, RouterPolicy::RoundRobin, true);
    serving::SimulatorConfig &decode = cfg.replicas[1].sim;
    ASSERT_EQ(cfg.replicas[1].role, ReplicaRole::Decode);
    const double bytes_per_token = static_cast<double>(
        llm::kvSchemeBytesPerToken(llm::llama7b(), decode.kvScheme()));
    const double full_kv =
        static_cast<double>(serving::kvCapacityPerDeviceBytes(decode));
    decode.hbm_gb -= (full_kv - 6000 * bytes_per_token) / 1e9;
    obs::MetricsRegistry reg;
    cfg.metrics = &reg;

    auto trace = serving::generateWorkload(cfg.workload);
    ASSERT_GE(trace.size(), 8u);
    std::uint64_t too_long = 0;
    for (std::size_t i = 1; i < trace.size(); i += 4, ++too_long) {
        ASSERT_GT(trace[i].max_new_tokens, 1u); // hands off
        trace[i].prompt_len = 12000;
    }
    trace[2].prompt_len = kNeverFit; // rejected at the entry replica
    auto report = FleetSimulator(cfg).run(trace);

    EXPECT_GT(report.handoff_rejects, 0u);
    EXPECT_EQ(report.handoff_rejects, too_long);
    EXPECT_EQ(report.rejected_requests, too_long + 1);
    EXPECT_EQ(report.completed_requests + report.rejected_requests,
              trace.size());
    // Every request but the entry reject handed off, rejected or not.
    EXPECT_EQ(report.handoffs, trace.size() - 1);
    EXPECT_EQ(report.replicas[0].report.rejected_requests, 1u);
    EXPECT_EQ(report.replicas[1].report.rejected_requests, too_long);
    EXPECT_EQ(counterValue(reg, "fleet.router.rejected"), too_long + 1);
    EXPECT_EQ(counterValue(reg, "fleet.router.handoff_rejects"),
              too_long);
}

// ---------------------------------------------------------------------
// Disaggregation invariants.

TEST(FleetDisagg, HandoffAccountingCloses)
{
    auto cfg = fleetConfig(4, RouterPolicy::LeastLoaded, true);
    auto trace = serving::generateWorkload(cfg.workload);
    std::uint64_t multi_token = 0;
    for (const auto &r : trace)
        if (r.max_new_tokens > 1)
            ++multi_token;
    auto report = FleetSimulator(cfg).run();

    EXPECT_TRUE(report.disaggregated);
    EXPECT_EQ(report.completed_requests + report.rejected_requests,
              trace.size());
    // Every completed multi-token request handed off exactly once;
    // rejected ones may or may not have reached the handoff.
    EXPECT_GT(report.handoffs, 0u);
    EXPECT_LE(report.handoffs, multi_token);
    EXPECT_GE(report.handoffs + report.rejected_requests, multi_token);
    EXPECT_GT(report.kv_transfer_bytes, 0u);
    EXPECT_GT(report.kv_transfer_us, 0.0);

    // Handoffs out of prefill replicas equal handoffs into decode
    // replicas equal the fleet total; roles never invert.
    std::uint64_t out = 0, in = 0;
    for (const auto &rep : report.replicas) {
        if (rep.role == ReplicaRole::Prefill) {
            EXPECT_EQ(rep.handoffs_in, 0u);
            out += rep.handoffs_out;
        } else {
            ASSERT_EQ(rep.role, ReplicaRole::Decode);
            EXPECT_EQ(rep.handoffs_out, 0u);
            EXPECT_EQ(rep.routed, 0u); // arrivals enter on prefill
            in += rep.handoffs_in;
        }
    }
    EXPECT_EQ(out, report.handoffs);
    EXPECT_EQ(in, report.handoffs);
}

TEST(FleetDisagg, TransferBytesFollowTheKvScheme)
{
    // Same fleet, same trace, FP16 KV vs VQ4 KV: the handoff streams
    // (prompt+1) tokens at the sender's bytes/token, so the transfer
    // shrinks by the schemes' bytes/token ratio (~4x; VQ4 carries
    // index-packing overhead, so not exactly kvSchemeScale).
    auto run = [](llm::KvScheme kv) {
        auto cfg = fleetConfig(2, RouterPolicy::RoundRobin, true);
        for (auto &rep : cfg.replicas)
            rep.sim.kv_scheme = kv;
        return FleetSimulator(cfg).run();
    };
    auto fp16 = run(llm::KvScheme::FP16);
    auto vq4 = run(llm::KvScheme::VQ4);
    ASSERT_GT(fp16.handoffs, 0u);
    const auto &model = llm::llama7b();
    double ratio = static_cast<double>(llm::kvSchemeBytesPerToken(
                       model, llm::KvScheme::FP16)) /
                   static_cast<double>(llm::kvSchemeBytesPerToken(
                       model, llm::KvScheme::VQ4));
    ASSERT_GT(ratio, 3.0);
    if (fp16.handoffs == vq4.handoffs)
        EXPECT_NEAR(static_cast<double>(fp16.kv_transfer_bytes),
                    ratio * static_cast<double>(vq4.kv_transfer_bytes),
                    1e-9 * static_cast<double>(fp16.kv_transfer_bytes));
    else // pool-pressure divergence: compression still strictly wins
        EXPECT_LT(vq4.kv_transfer_bytes, fp16.kv_transfer_bytes);
    // The priced stall follows the bytes over the same link.
    EXPECT_LT(vq4.kv_transfer_us, fp16.kv_transfer_us);
}

TEST(FleetDisagg, MixedRolesWithAggregatedAreRejected)
{
    FleetConfig cfg;
    cfg.workload.duration_s = 1;
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Aggregated});
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Prefill});
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Decode});
    EXPECT_DEATH({ FleetSimulator sim(cfg); }, "");
}

TEST(FleetDisagg, MissingDecodeRoleIsRejected)
{
    FleetConfig cfg;
    cfg.workload.duration_s = 1;
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Prefill});
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Prefill});
    EXPECT_DEATH({ FleetSimulator sim(cfg); }, "");
}

TEST(FleetDisagg, KvSchemeMismatchAcrossRolesIsRejected)
{
    FleetConfig cfg;
    cfg.workload.duration_s = 1;
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Prefill});
    cfg.replicas.push_back({replicaSim(), ReplicaRole::Decode});
    cfg.replicas[1].sim.kv_scheme = llm::KvScheme::FP16;
    EXPECT_DEATH({ FleetSimulator sim(cfg); }, "");
}

// ---------------------------------------------------------------------
// Heterogeneous fleets (aggregated): different HBM budgets are legal
// and the SLO-aware router keeps favouring the better-provisioned
// replica once throughput history accumulates.

TEST(FleetRouting, HeterogeneousFleetRunsAndBalancesByCapability)
{
    auto cfg = fleetConfig(2, RouterPolicy::SloAware, false);
    cfg.replicas[0].sim.hbm_gb = 48; // roomier pool than replica 1
    cfg.workload.qps = 10;
    auto report = FleetSimulator(cfg).run();
    EXPECT_EQ(report.completed_requests + report.rejected_requests,
              report.replicas[0].routed + report.replicas[1].routed);
    EXPECT_GT(report.completed_requests, 0u);
}

} // namespace
} // namespace vqllm::fleet
