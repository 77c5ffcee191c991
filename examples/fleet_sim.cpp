/**
 * @file
 * fleet_sim: multi-replica fleet serving simulation from the command
 * line — N replicas behind a router, optionally disaggregated into
 * prefill and decode roles with priced KV handoffs.
 *
 *   fleet_sim [--replicas N] [--router round-robin|least-loaded|
 *             prefix-affinity|slo-aware] [--disaggregated on|off]
 *             [--prefill-replicas N] [--handoff-gbps G]
 *             [--handoff-latency-us U]
 *             [simulator flags, see cli_flags.h]
 *
 * All replicas share one hardware/model config here (the library
 * supports heterogeneous fleets).  In disaggregated mode the first
 * --prefill-replicas replicas (default: half, rounded up) take the
 * prefill role and the rest decode; prefill replicas stream each
 * finished sequence's KV cache to the least-loaded decode replica over
 * the handoff link.  A 1-replica aggregated fleet reproduces
 * serving_sim's report bit-identically.  Unknown flags and malformed
 * values (see cli_flags.h) are usage errors (exit code 2).
 */
#include <cstdio>
#include <fstream>
#include <string>

#include "cli_flags.h"
#include "common/logging.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "serving/simulator.h"

using namespace vqllm;

namespace {

const char kUsage[] =
    "usage: fleet_sim [options]\n"
    "  --replicas N                 fleet size (default 2)\n"
    "  --router round-robin|least-loaded|prefix-affinity|slo-aware\n"
    "                               routing policy (default least-loaded)\n"
    "  --disaggregated on|off       prefill/decode disaggregation\n"
    "                               (default off)\n"
    "  --prefill-replicas N         disaggregated: prefill-role count\n"
    "                               (default: half, rounded up)\n"
    "  --handoff-gbps G             prefill->decode KV link, GB/s, > 0\n"
    "  --handoff-latency-us U       per-handoff launch latency, us\n"
    "every replica takes the simulator flags below; --trace-out merges\n"
    "replica i's tracks under r<i>/:\n";

} // namespace

int
main(int argc, char **argv)
{
    std::size_t replicas = 2;
    std::size_t prefill_replicas = 0; // 0 = half, rounded up
    bool disaggregated = false;

    fleet::FleetConfig cfg;
    cfg.router = fleet::RouterPolicy::LeastLoaded;
    cfg.workload.qps = 8;
    cfg.workload.duration_s = 30;

    serving::SimulatorConfig sim;
    sim.spec = &gpusim::rtx4090();
    sim.model = &llm::llama7b();
    sim.scheduler.chunk_tokens = 512;

    cli::SimFlags flags("fleet_sim", kUsage, sim, cfg.workload);
    flags.parse(argc, argv, [&] {
        const std::string &flag = flags.flag();
        if (flag == "--replicas") {
            replicas = flags.count(1);
        } else if (flag == "--router") {
            const std::string v = flags.value();
            auto p = fleet::parseRouterPolicy(v);
            if (!p)
                flags.badChoice(v, "round-robin|least-loaded|"
                                   "prefix-affinity|slo-aware");
            cfg.router = *p;
        } else if (flag == "--disaggregated") {
            disaggregated = flags.onOff();
        } else if (flag == "--prefill-replicas") {
            prefill_replicas = flags.count();
        } else if (flag == "--handoff-gbps") {
            cfg.handoff_link.link_bw_gbps = flags.real();
            if (cfg.handoff_link.link_bw_gbps <= 0)
                flags.usageError("--handoff-gbps must be > 0");
        } else if (flag == "--handoff-latency-us") {
            cfg.handoff_link.collective_latency_us = flags.real();
            if (cfg.handoff_link.collective_latency_us < 0)
                flags.usageError("--handoff-latency-us must be >= 0");
        } else {
            return false;
        }
        return true;
    });

    if (prefill_replicas == 0)
        prefill_replicas = (replicas + 1) / 2;
    if (disaggregated &&
        (replicas < 2 || prefill_replicas >= replicas))
        flags.usageError("disaggregation needs >= 2 replicas with at "
                         "least one prefill and one decode role");

    obs::MetricsRegistry registry;
    if (!flags.metrics_out.empty())
        cfg.metrics = &registry;
    cfg.trace = !flags.trace_out.empty();

    cfg.replicas.resize(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
        cfg.replicas[r].sim = sim;
        cfg.replicas[r].role =
            !disaggregated ? fleet::ReplicaRole::Aggregated
            : r < prefill_replicas ? fleet::ReplicaRole::Prefill
                                   : fleet::ReplicaRole::Decode;
    }

    std::printf("fleet: %zu x %s on %s / %s, router %s, %s%s\n",
                replicas, sim.model->name.c_str(),
                sim.spec->name.c_str(),
                llm::quantSchemeName(sim.scheme),
                fleet::routerPolicyName(cfg.router),
                disaggregated ? "disaggregated" : "aggregated",
                cfg.workload.arrival != serving::ArrivalPattern::Poisson
                    ? (std::string(", ") +
                       serving::arrivalPatternName(cfg.workload.arrival) +
                       " arrivals")
                          .c_str()
                    : "");

    fleet::FleetSimulator fsim(cfg);
    auto report = fsim.run();
    std::printf("%s", report.summary().c_str());

    if (!flags.trace_out.empty()) {
        std::ofstream os(flags.trace_out, std::ios::binary);
        if (!os)
            vqllm_fatal("cannot open trace output '", flags.trace_out, "'");
        fsim.writeChromeTrace(os);
        std::printf("trace: merged %zu replica timelines -> %s (load "
                    "in https://ui.perfetto.dev)\n",
                    replicas, flags.trace_out.c_str());
    }
    if (!flags.metrics_out.empty()) {
        std::ofstream os(flags.metrics_out, std::ios::binary);
        if (!os)
            vqllm_fatal("cannot open metrics output '", flags.metrics_out,
                        "'");
        os << "{\"report\":" << report.json()
           << ",\"metrics\":" << registry.json() << "}\n";
        std::printf("metrics: %zu instruments -> %s\n", registry.size(),
                    flags.metrics_out.c_str());
    }
    return 0;
}
