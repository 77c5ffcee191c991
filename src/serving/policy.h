/**
 * @file
 * Scheduling policies for the continuous-batching scheduler.
 *
 * A policy is one total order over requests, admitBefore(kind, a, b),
 * and batch formation needs nothing else: *admission* takes waiting
 * requests in that order, and *eviction* takes it reversed (the
 * running request that would be admitted last loses its KV blocks
 * first when a decode step cannot take a block).  The scheduler owns
 * the queues and the KV accounting, so every policy shares the same
 * preemption/recompute machinery.
 *
 * Three policies ship:
 *  - FCFS      — strict arrival order; evict the latest arrival
 *                (vLLM's default recompute preemption).
 *  - Priority  — higher Request::priority first; evict the lowest
 *                priority (then the latest arrival).
 *  - EDF       — SLO-aware earliest-deadline-first on the per-request
 *                TTFT deadline (before the first token) or TBT deadline
 *                (after it); evict the request with the most slack.
 *
 * Every order ends in an arrival and then request-id tiebreak, so it
 * is total and batch formation is deterministic for any policy.
 */
#pragma once

#include <string>

#include "serving/request.h"

namespace vqllm::serving {

/** Selectable scheduling policies. */
enum class PolicyKind {
    FCFS,
    Priority,
    EDF,
};

/** @return the next deadline EDF schedules r against: TTFT deadline
 *  until the first token, then the TBT deadline of the next token. */
inline double
edfDeadlineUs(const Request &r)
{
    if (r.generated == 0)
        return r.arrival_us + r.ttft_deadline_us;
    return r.last_token_us + r.tbt_deadline_us;
}

/** @return true when policy `kind` admits a before b (and so evicts b
 *  before a). */
inline bool
admitBefore(PolicyKind kind, const Request &a, const Request &b)
{
    switch (kind) {
      case PolicyKind::FCFS:
        break;
      case PolicyKind::Priority:
        if (a.priority != b.priority)
            return a.priority > b.priority;
        break;
      case PolicyKind::EDF: {
        double da = edfDeadlineUs(a), db = edfDeadlineUs(b);
        if (da != db)
            return da < db;
        break;
      }
    }
    if (a.arrival_us != b.arrival_us)
        return a.arrival_us < b.arrival_us;
    return a.id < b.id;
}

/** @return lower-case policy name ("fcfs", "priority", "edf"). */
const char *policyKindName(PolicyKind kind);

/** Parse a policy name; @return false on unknown token. */
bool parsePolicyKind(const std::string &token, PolicyKind *out);

} // namespace vqllm::serving
