/**
 * @file
 * Fleet request router: picks the replica a request enters the fleet
 * on.  Policies see a per-replica load snapshot (queued tokens on the
 * replica's scheduler *plus* its undelivered routed backlog) and must
 * be total orders with id/index tie-breaks, so routing — and therefore
 * the whole fleet simulation — is deterministic.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vqllm::serving {
struct Request;
}

namespace vqllm::fleet {

/** Routing policy over the fleet's entry replicas. */
enum class RouterPolicy {
    /** Cycle through the entry replicas in index order. */
    RoundRobin,
    /** Fewest queued tokens (prefill + decode backlog), index
     *  tie-break. */
    LeastLoaded,
    /**
     * Requests of one shared-prefix group (Request::prefix_group, the
     * PrefixCache group key) stick to the replica the group first
     * landed on, so its cached prefix keeps hitting; groupless
     * requests fall back to least-loaded.
     */
    PrefixAffinity,
    /**
     * Maximize projected TTFT deadline slack: pick the replica whose
     * measured prefill throughput drains its queued prefill backlog
     * plus this prompt soonest.  On a heterogeneous fleet this routes
     * around slow replicas where least-loaded (token counts alone)
     * would not.
     */
    SloAware,
};

const char *routerPolicyName(RouterPolicy p);
std::optional<RouterPolicy> parseRouterPolicy(const std::string &s);

/** One replica's load as the router sees it at routing time. */
struct ReplicaLoadView
{
    std::size_t index = 0;
    /** Un-prefilled prompt tokens: scheduler queues + routed backlog. */
    std::uint64_t queued_prefill_tokens = 0;
    /** Un-generated decode tokens: scheduler queues + routed backlog. */
    std::uint64_t queued_decode_tokens = 0;
    /** Tokens the replica has processed so far (prefill + decode). */
    std::uint64_t processed_tokens = 0;
    /** Simulated time the replica has spent busy, us. */
    double busy_us = 0;
};

/**
 * Stateful router (round-robin cursor, prefix-group affinity map).
 * pick() never fails: candidates is non-empty by fleet construction.
 */
class Router
{
  public:
    explicit Router(RouterPolicy policy) : policy_(policy) {}

    /**
     * Choose the entry replica for @p r among @p candidates (load
     * views of the fleet's entry replicas, in index order).
     */
    std::size_t pick(const serving::Request &r,
                     const std::vector<ReplicaLoadView> &candidates);

  private:
    std::size_t leastLoaded(
        const std::vector<ReplicaLoadView> &candidates) const;

    RouterPolicy policy_;
    std::size_t rr_cursor_ = 0;
    /** prefix_group → replica index of the group's first request. */
    std::map<std::int64_t, std::size_t> affinity_;
};

} // namespace vqllm::fleet
