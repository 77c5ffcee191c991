/**
 * @file
 * Fleet simulator: N replica instances (each a full ServingSimulator
 * config — possibly different GPU specs, HBM sizes, TP degrees, and KV
 * schemes) behind a pluggable router, with optional prefill/decode
 * disaggregation.
 *
 * The fleet keeps one SimulatorCore per replica on a single global
 * timeline: arrivals route into an entry replica's core, and the core
 * with the lowest nextEventUs() advances — each core owns its replica
 * loop (delivery, idle fast-forward, step), so a 1-replica aggregated
 * fleet runs the bare ServingSimulator's loop (bit-identical report).
 * The loop is fully sequential: reports are bit-identical across host
 * thread counts.
 *
 * Disaggregated mode splits every request into a prefill part and a
 * decode part.  A prefill-role replica runs (chunked) prefill and
 * emits the first token; the sequence's KV blocks — (prompt+1) tokens
 * at the *sender's* kvSchemeBytesPerToken — then stream to a
 * decode-role replica over the fleet link, priced with
 * llm::linkTransferUs.  The decode part arrives when the transfer
 * lands, admits through the scheduler's imported-KV path (full context
 * mapped in, no prefill compute), and decodes the remaining tokens;
 * the transfer stall shows up in its first TBT sample.  Compressed KV
 * (VQ4/VQ2) shrinks the handoff by the scheme's compression factor,
 * which is what makes disaggregation pay off (VecInfer-style low-bit
 * KV): decode replicas run pure token-rate work while prefill replicas
 * absorb the compute bursts.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "llm/tensor_parallel.h"
#include "serving/request.h"
#include "serving/simulator.h"

namespace vqllm::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace vqllm::serving {
class SimulatorCore;
}

namespace vqllm::fleet {

/** Role a replica plays in the fleet. */
enum class ReplicaRole {
    /** Runs both phases locally (no handoff). */
    Aggregated,
    /** Entry replica: prefills, emits the first token, hands off. */
    Prefill,
    /** Receives imported KV, decodes the remaining tokens. */
    Decode,
};

const char *replicaRoleName(ReplicaRole r);

/** One replica: a full single-replica simulator config plus its role.
 *  The workload member of `sim` is ignored — the fleet generates one
 *  global workload and routes it. */
struct ReplicaConfig
{
    serving::SimulatorConfig sim;
    ReplicaRole role = ReplicaRole::Aggregated;
};

/** Tracks per replica reserved in merged Chrome traces (track 0 is the
 *  scheduler, 1+s shard s; 16 covers TP degrees up to 15). */
inline constexpr int kTracksPerReplica = 16;

/** Full parameterization of one fleet simulation. */
struct FleetConfig
{
    /** Replica set.  Roles must be all-Aggregated, or — disaggregated
     *  mode — at least one Prefill and one Decode with no Aggregated
     *  mixed in.  Disaggregation requires the prefill and decode
     *  replicas to agree on the model and the effective KV scheme
     *  (streamed blocks must be loadable on the receiver). */
    std::vector<ReplicaConfig> replicas;

    RouterPolicy router = RouterPolicy::RoundRobin;

    /** Link model pricing prefill→decode KV handoffs (only the
     *  link_bw_gbps / collective_latency_us fields matter; the
     *  defaults match TpConfig's NVLink-class link). */
    llm::TpConfig handoff_link;

    /** Global workload, routed across the fleet. */
    serving::WorkloadConfig workload;

    /** Record per-replica traces, exported merged via
     *  FleetSimulator::writeChromeTrace (replica i on tracks
     *  [i*kTracksPerReplica, ...) prefixed "r<i>/"). */
    bool trace = false;

    /** Fleet-level metrics registry (nullptr = off): `fleet.router.*`,
     *  KV-transfer counters, utilization gauges.  Per-replica
     *  `serving.*` metrics go to each replica's own sim.metrics. */
    obs::MetricsRegistry *metrics = nullptr;
};

/** Per-replica slice of the fleet report. */
struct FleetReplicaReport
{
    ReplicaRole role = ReplicaRole::Aggregated;
    /** Requests that entered the fleet on this replica. */
    std::uint64_t routed = 0;
    std::uint64_t handoffs_in = 0;
    std::uint64_t handoffs_out = 0;
    /** The replica's own full report.  For a 1-replica aggregated
     *  fleet this is bit-identical to a bare ServingSimulator run. */
    serving::ServingReport report;
};

/** Fleet-level results: request latencies are origin-level (a
 *  disaggregated request's E2E spans both phases and the transfer). */
struct FleetReport
{
    serving::LatencyStats ttft;
    serving::LatencyStats tbt;
    serving::LatencyStats e2e;
    /** max over replicas of their local clocks, us. */
    double sim_time_us = 0;
    /** Fleet decode tokens over sim_time_us. */
    double fleet_tokens_per_sec = 0;
    std::uint64_t completed_requests = 0;
    std::uint64_t rejected_requests = 0;
    /** Prefill→decode KV handoffs and their priced transfer cost. */
    std::uint64_t handoffs = 0;
    std::uint64_t kv_transfer_bytes = 0;
    double kv_transfer_us = 0;
    /** Decode parts rejected at the decode replica (counted in
     *  rejected_requests too). */
    std::uint64_t handoff_rejects = 0;
    /** Replica utilization spread: max - min busy fraction. */
    double util_min = 0;
    double util_max = 0;
    double util_imbalance = 0;
    std::string router;
    bool disaggregated = false;
    std::vector<FleetReplicaReport> replicas;

    std::string json() const;
    std::string summary() const;
};

/**
 * Runs one fleet simulation to completion.  Deterministic: one
 * FleetConfig (workload seed included) produces a bit-identical
 * FleetReport regardless of host thread count.
 */
class FleetSimulator
{
  public:
    explicit FleetSimulator(const FleetConfig &cfg);
    ~FleetSimulator();

    /** Generate the global workload from cfg and run it. */
    FleetReport run();

    /** Run an explicit trace (must be arrival-sorted). */
    FleetReport run(std::vector<serving::Request> &trace);

    bool disaggregated() const { return disaggregated_; }

    /** Merged per-replica Chrome trace (requires cfg.trace; call
     *  after run()). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Replica;

    std::vector<ReplicaLoadView>
    loadViews(const std::vector<std::size_t> &indices) const;
    void routeRequest(serving::Request *r);
    void onPartFinished(std::size_t i, serving::Request *f);
    void completeOrigin(const serving::Request *f);

    FleetConfig cfg_;
    bool disaggregated_ = false;
    Router router_;
    std::vector<Replica> replicas_;
    std::vector<std::size_t> entry_replicas_;
    std::vector<std::size_t> decode_replicas_;
    /** Owned trace recorders, one per replica (cfg.trace only). */
    std::vector<std::unique_ptr<obs::TraceRecorder>> trace_recs_;

    /** Prefill and decode parts of disaggregated requests (deque:
     *  handoffs keep growing while earlier parts are in flight —
     *  addresses must stay stable). */
    std::deque<serving::Request> parts_;
    /** Origin-level request facts the parts lose: arrival (for E2E)
     *  and the full decode budget (handoff sizing). */
    struct Origin
    {
        double arrival_us = 0;
        std::size_t max_new_tokens = 0;
    };
    std::map<std::uint64_t, Origin> origins_;
    std::vector<double> e2e_samples_;
    std::uint64_t completed_ = 0;
    std::uint64_t handoffs_ = 0;
    std::uint64_t kv_transfer_bytes_ = 0;
    double kv_transfer_us_ = 0;
};

} // namespace vqllm::fleet
