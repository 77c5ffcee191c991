#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/sim_core.h"

namespace vqllm::fleet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

const char *
replicaRoleName(ReplicaRole r)
{
    switch (r) {
      case ReplicaRole::Aggregated: return "aggregated";
      case ReplicaRole::Prefill:    return "prefill";
      case ReplicaRole::Decode:     return "decode";
    }
    return "?";
}

struct FleetSimulator::Replica
{
    std::unique_ptr<serving::SimulatorCore> core;
    ReplicaRole role = ReplicaRole::Aggregated;
    std::uint64_t routed = 0;
    std::uint64_t handoffs_in = 0;
    std::uint64_t handoffs_out = 0;
};

FleetSimulator::FleetSimulator(const FleetConfig &cfg)
    : cfg_(cfg), router_(cfg.router)
{
    vqllm_assert(!cfg_.replicas.empty(),
                 "a fleet needs at least one replica");
    std::size_t n_prefill = 0, n_decode = 0, n_aggregated = 0;
    for (const ReplicaConfig &rc : cfg_.replicas) {
        switch (rc.role) {
          case ReplicaRole::Aggregated: ++n_aggregated; break;
          case ReplicaRole::Prefill:    ++n_prefill; break;
          case ReplicaRole::Decode:     ++n_decode; break;
        }
    }
    disaggregated_ = n_prefill + n_decode > 0;
    if (disaggregated_) {
        if (n_aggregated > 0)
            vqllm_fatal("cannot mix aggregated replicas into a "
                        "disaggregated fleet");
        if (n_prefill == 0 || n_decode == 0)
            vqllm_fatal("a disaggregated fleet needs at least one "
                        "prefill and one decode replica (got ",
                        n_prefill, " prefill, ", n_decode, " decode)");
        // Streamed KV blocks must be loadable on the receiver: every
        // replica serves the same model under the same KV scheme
        // (specs, HBM and TP degrees may still differ).
        const serving::SimulatorConfig &ref = cfg_.replicas[0].sim;
        for (const ReplicaConfig &rc : cfg_.replicas) {
            if (rc.sim.kvScheme() != ref.kvScheme())
                vqllm_fatal("disaggregated replicas disagree on the "
                            "KV scheme: handoff blocks would not be "
                            "loadable");
            const llm::LlamaConfig &model = rc.sim.modelConfig();
            if (model.decoderParams() != ref.modelConfig().decoderParams() ||
                model.kvHeads() != ref.modelConfig().kvHeads())
                vqllm_fatal("disaggregated replicas disagree on the "
                            "model: handoff KV state would not match "
                            "the receiver's layout");
        }
    }

    replicas_.resize(cfg_.replicas.size());
    for (std::size_t i = 0; i < cfg_.replicas.size(); ++i) {
        serving::SimulatorConfig sim = cfg_.replicas[i].sim;
        // The fleet owns the timeline; a replica-level workload would
        // never be generated, so drop it to avoid implying otherwise.
        sim.workload = serving::WorkloadConfig{};
        if (cfg_.trace) {
            trace_recs_.push_back(
                std::make_unique<obs::TraceRecorder>());
            sim.trace = trace_recs_.back().get();
        }
        replicas_[i].core =
            std::make_unique<serving::SimulatorCore>(sim);
        replicas_[i].role = cfg_.replicas[i].role;
        if (!disaggregated_ ||
            replicas_[i].role == ReplicaRole::Prefill)
            entry_replicas_.push_back(i);
        if (replicas_[i].role == ReplicaRole::Decode)
            decode_replicas_.push_back(i);
    }
}

FleetSimulator::~FleetSimulator() = default;

std::vector<ReplicaLoadView>
FleetSimulator::loadViews(const std::vector<std::size_t> &indices) const
{
    std::vector<ReplicaLoadView> views;
    views.reserve(indices.size());
    for (std::size_t i : indices) {
        const Replica &rep = replicas_[i];
        ReplicaLoadView v;
        v.index = i;
        v.queued_prefill_tokens = rep.core->queuedPrefillTokens();
        v.queued_decode_tokens = rep.core->queuedDecodeTokens();
        v.processed_tokens = rep.core->processedTokens();
        v.busy_us = rep.core->busyUs();
        views.push_back(v);
    }
    return views;
}

void
FleetSimulator::routeRequest(serving::Request *r)
{
    std::size_t target = router_.pick(*r, loadViews(entry_replicas_));
    ++replicas_[target].routed;
    if (!disaggregated_) {
        replicas_[target].core->enqueue(r);
        return;
    }
    // Prefill part: the prompt plus exactly the first output token —
    // the handoff streams the context after that token lands.
    parts_.push_back(*r);
    serving::Request *p = &parts_.back();
    p->max_new_tokens = 1;
    replicas_[target].core->enqueue(p);
}

void
FleetSimulator::completeOrigin(const serving::Request *f)
{
    ++completed_;
    e2e_samples_.push_back(f->finish_us -
                           origins_.at(f->id).arrival_us);
}

void
FleetSimulator::onPartFinished(std::size_t i, serving::Request *f)
{
    Replica &rep = replicas_[i];
    if (rep.role != ReplicaRole::Prefill) {
        completeOrigin(f);
        return;
    }
    // The prefill part carried max_new = 1; the origin's full decode
    // budget comes from the fleet's origin bookkeeping.
    const std::size_t origin_max_new =
        origins_.at(f->id).max_new_tokens;
    const std::size_t remaining_decode =
        origin_max_new > 1 ? origin_max_new - 1 : 0;
    if (remaining_decode == 0) {
        // Single-token request: the prefill part was the whole
        // request, no handoff.
        completeOrigin(f);
        return;
    }
    // ---- KV handoff: stream the finished sequence's cache — context
    // tokens at the *sender's* per-token footprint — over the fleet
    // link.  Compressed KV shrinks this transfer by the scheme's
    // compression factor.
    const std::uint64_t kv_tokens = f->contextTokens();
    const std::uint64_t bytes = kv_tokens * rep.core->kvBytesPerToken();
    const double transfer_us =
        llm::linkTransferUs(cfg_.handoff_link, bytes);
    ++handoffs_;
    ++rep.handoffs_out;
    kv_transfer_bytes_ += bytes;
    kv_transfer_us_ += transfer_us;

    // Decode target: fewest queued decode tokens, index tie-break.
    const auto views = loadViews(decode_replicas_);
    std::size_t best = 0;
    for (std::size_t k = 1; k < views.size(); ++k)
        if (views[k].queued_decode_tokens <
            views[best].queued_decode_tokens)
            best = k;
    const std::size_t target = views[best].index;

    // Decode part: arrives when the transfer lands, imports the full
    // context (prompt plus the first token) without prefill compute,
    // and decodes the rest.  Token timestamps carry over, so its first
    // decode TBT sample absorbs the transfer stall.
    parts_.push_back(*f);
    serving::Request *d = &parts_.back();
    d->arrival_us = f->finish_us + transfer_us;
    d->prompt_len = f->contextTokens();
    d->max_new_tokens = remaining_decode;
    d->prefix_group = -1;
    d->prefix_tokens = 0;
    d->kv_imported = true;
    d->generated = 0;
    d->prefilled_tokens = 0;
    d->prefill_complete = false;
    d->finish_us = -1;
    d->preemptions = 0;
    ++replicas_[target].handoffs_in;
    replicas_[target].core->enqueue(d);
}

FleetReport
FleetSimulator::run()
{
    auto trace = serving::generateWorkload(cfg_.workload);
    return run(trace);
}

FleetReport
FleetSimulator::run(std::vector<serving::Request> &trace)
{
    for (const serving::Request &r : trace)
        origins_[r.id] = {r.arrival_us, r.max_new_tokens};

    // ---- Global event loop: at every turn the earliest event wins —
    // the next unrouted arrival, or the replica with the lowest
    // SimulatorCore::nextEventUs(), which then advances once.
    // Arrivals win ties so the router always sees the full backlog,
    // and replica ties resolve by index.  Entirely sequential:
    // bit-identical across thread counts.
    std::size_t next_route = 0;
    for (;;) {
        const double t_arr = next_route < trace.size()
                                 ? trace[next_route].arrival_us
                                 : kInf;
        double t_step = kInf;
        std::size_t step_i = 0;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            const double t = replicas_[i].core->nextEventUs();
            if (t < t_step) {
                t_step = t;
                step_i = i;
            }
        }
        if (t_arr <= t_step) {
            if (t_arr == kInf)
                break; // no arrivals left, every replica drained
            routeRequest(&trace[next_route++]);
            continue;
        }
        serving::SimulatorCore &core = *replicas_[step_i].core;
        core.advance();
        for (serving::Request *f : core.takeFinished())
            onPartFinished(step_i, f);
    }

    // Origin-level rejections: an origin is rejected once, at its
    // entry replica or at a decode replica as a stranded handoff (its
    // prefill work is sunk cost).  A decode part keeps kv_imported
    // until it admits, so a Rejected part still flagged is a handoff
    // reject.
    std::uint64_t rejected = 0;
    for (const Replica &rep : replicas_)
        rejected += rep.core->rejectedCount();
    std::uint64_t handoff_rejects = 0;
    for (const serving::Request &part : parts_)
        if (part.state == serving::RequestState::Rejected &&
            part.kv_imported)
            ++handoff_rejects;
    vqllm_assert(completed_ + rejected == trace.size(),
                 "fleet drained with requests unaccounted for");

    // ---- Assemble the fleet report.  Latencies are origin-level:
    // TTFT/TBT pool every replica's samples (summarize() sums in
    // ascending order, so concatenation order is irrelevant); E2E comes
    // from the fleet's own completion bookkeeping (a disaggregated
    // request's E2E spans both phases plus the transfer).
    FleetReport report;
    std::vector<double> ttft, tbt;
    double sim_time_us = 0;
    std::uint64_t decode_tokens = 0;
    for (const Replica &rep : replicas_) {
        const serving::MetricsCollector &c = rep.core->collector();
        ttft.insert(ttft.end(), c.ttftSamples().begin(),
                    c.ttftSamples().end());
        tbt.insert(tbt.end(), c.tbtSamples().begin(),
                   c.tbtSamples().end());
        sim_time_us = std::max(sim_time_us, rep.core->now());
    }
    report.ttft = serving::summarize(ttft);
    report.tbt = serving::summarize(tbt);
    report.e2e = serving::summarize(e2e_samples_);
    report.sim_time_us = sim_time_us;
    report.completed_requests = completed_;
    report.rejected_requests = rejected;
    report.handoffs = handoffs_;
    report.kv_transfer_bytes = kv_transfer_bytes_;
    report.kv_transfer_us = kv_transfer_us_;
    report.handoff_rejects = handoff_rejects;
    report.router = routerPolicyName(cfg_.router);
    report.disaggregated = disaggregated_;
    report.replicas.resize(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        FleetReplicaReport &rr = report.replicas[i];
        rr.role = replicas_[i].role;
        rr.routed = replicas_[i].routed;
        rr.handoffs_in = replicas_[i].handoffs_in;
        rr.handoffs_out = replicas_[i].handoffs_out;
        rr.report = replicas_[i].core->finalize();
        decode_tokens += rr.report.decode_tokens;
        if (i == 0) {
            report.util_min = rr.report.utilization;
            report.util_max = rr.report.utilization;
        } else {
            report.util_min =
                std::min(report.util_min, rr.report.utilization);
            report.util_max =
                std::max(report.util_max, rr.report.utilization);
        }
    }
    report.util_imbalance = report.util_max - report.util_min;
    report.fleet_tokens_per_sec =
        sim_time_us > 0
            ? static_cast<double>(decode_tokens) / (sim_time_us / 1e6)
            : 0;

    if (cfg_.metrics != nullptr) {
        obs::MetricsRegistry &reg = *cfg_.metrics;
        std::uint64_t routed_total = 0;
        for (const Replica &rep : replicas_)
            routed_total += rep.routed;
        reg.counter("fleet.router.routed").add(routed_total);
        reg.counter("fleet.router.rejected").add(rejected);
        reg.counter("fleet.router.handoffs").add(handoffs_);
        reg.counter("fleet.router.handoff_rejects").add(handoff_rejects);
        reg.counter("fleet.kv_transfer.bytes").add(kv_transfer_bytes_);
        reg.gauge("fleet.kv_transfer.us").set(kv_transfer_us_);
        reg.gauge("fleet.util.min").set(report.util_min);
        reg.gauge("fleet.util.max").set(report.util_max);
        reg.gauge("fleet.util.imbalance").set(report.util_imbalance);
        reg.gauge("fleet.tokens_per_sec")
            .set(report.fleet_tokens_per_sec);
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            const std::string p =
                "fleet.replica." + std::to_string(i) + ".";
            reg.counter(p + "routed").add(replicas_[i].routed);
            reg.counter(p + "handoffs_in")
                .add(replicas_[i].handoffs_in);
            reg.counter(p + "handoffs_out")
                .add(replicas_[i].handoffs_out);
            reg.gauge(p + "utilization")
                .set(report.replicas[i].report.utilization);
        }
    }
    return report;
}

void
FleetSimulator::writeChromeTrace(std::ostream &os) const
{
    vqllm_assert(!trace_recs_.empty(),
                 "fleet tracing is off (FleetConfig::trace)");
    std::vector<obs::TraceMergePart> parts;
    parts.reserve(trace_recs_.size());
    for (std::size_t i = 0; i < trace_recs_.size(); ++i) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "r%zu/", i);
        parts.push_back({trace_recs_[i].get(),
                         static_cast<int>(i) * kTracksPerReplica,
                         prefix});
    }
    obs::writeChromeJsonMerged(os, parts);
}

std::string
FleetReport::json() const
{
    using serving::jsonDouble;
    using serving::jsonU64;
    using serving::writeLatency;
    std::ostringstream os;
    os << "{\"router\":\"" << router << "\",\"disaggregated\":"
       << (disaggregated ? "true" : "false") << ",";
    writeLatency(os, "ttft", ttft);
    os << ",";
    writeLatency(os, "tbt", tbt);
    os << ",";
    writeLatency(os, "e2e", e2e);
    os << ",\"sim_time_us\":" << jsonDouble(sim_time_us)
       << ",\"fleet_tokens_per_sec\":" << jsonDouble(fleet_tokens_per_sec)
       << ",\"completed_requests\":" << jsonU64(completed_requests)
       << ",\"rejected_requests\":" << jsonU64(rejected_requests)
       << ",\"handoffs\":" << jsonU64(handoffs)
       << ",\"kv_transfer_bytes\":" << jsonU64(kv_transfer_bytes)
       << ",\"kv_transfer_us\":" << jsonDouble(kv_transfer_us)
       << ",\"handoff_rejects\":" << jsonU64(handoff_rejects)
       << ",\"util_min\":" << jsonDouble(util_min)
       << ",\"util_max\":" << jsonDouble(util_max)
       << ",\"util_imbalance\":" << jsonDouble(util_imbalance)
       << ",\"replicas\":[";
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        const FleetReplicaReport &r = replicas[i];
        if (i > 0)
            os << ",";
        os << "{\"role\":\"" << replicaRoleName(r.role) << "\""
           << ",\"routed\":" << jsonU64(r.routed)
           << ",\"handoffs_in\":" << jsonU64(r.handoffs_in)
           << ",\"handoffs_out\":" << jsonU64(r.handoffs_out)
           << ",\"report\":" << r.report.json() << "}";
    }
    os << "]}";
    return os.str();
}

std::string
FleetReport::summary() const
{
    std::ostringstream os;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "fleet: %zu replicas, router %s, %s\n",
                  replicas.size(), router.c_str(),
                  disaggregated ? "disaggregated" : "aggregated");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  completed %llu  rejected %llu  "
                  "fleet tok/s %.1f  sim time %.1f s\n",
                  static_cast<unsigned long long>(completed_requests),
                  static_cast<unsigned long long>(rejected_requests),
                  fleet_tokens_per_sec, sim_time_us / 1e6);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  ttft p50 %.1f ms  p95 %.1f ms | tbt p50 %.2f ms  "
                  "p95 %.2f ms | e2e p95 %.1f ms\n",
                  ttft.p50_us / 1e3, ttft.p95_us / 1e3, tbt.p50_us / 1e3,
                  tbt.p95_us / 1e3, e2e.p95_us / 1e3);
    os << buf;
    if (disaggregated) {
        std::snprintf(buf, sizeof(buf),
                      "  handoffs %llu (%llu rejected)  KV transfer "
                      "%.1f MB, %.1f ms\n",
                      static_cast<unsigned long long>(handoffs),
                      static_cast<unsigned long long>(handoff_rejects),
                      static_cast<double>(kv_transfer_bytes) / 1e6,
                      kv_transfer_us / 1e3);
        os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  utilization min %.2f  max %.2f  imbalance %.2f\n",
                  util_min, util_max, util_imbalance);
    os << buf;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        const FleetReplicaReport &r = replicas[i];
        std::snprintf(
            buf, sizeof(buf),
            "  r%zu [%s] routed %llu  in/out %llu/%llu  util %.2f  "
            "tok/s %.1f\n",
            i, replicaRoleName(r.role),
            static_cast<unsigned long long>(r.routed),
            static_cast<unsigned long long>(r.handoffs_in),
            static_cast<unsigned long long>(r.handoffs_out),
            r.report.utilization, r.report.tokens_per_sec);
        os << buf;
    }
    return os.str();
}

} // namespace vqllm::fleet
