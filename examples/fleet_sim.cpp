/**
 * @file
 * fleet_sim: multi-replica fleet serving simulation from the command
 * line — N replicas behind a router, optionally disaggregated into
 * prefill and decode roles with priced KV handoffs.
 *
 *   fleet_sim [--replicas N] [--router round-robin|least-loaded|
 *             prefix-affinity|slo-aware] [--disaggregated on|off]
 *             [--prefill-replicas N] [--scheme fp16|ewq4|vq4|vq2]
 *             [--kv-scheme fp16|int4|vq4|vq2] [--model 7b|65b|70b]
 *             [--gpu 4090|a40] [--tp-degree N] [--hbm-gb G]
 *             [--chunk-tokens N] [--max-batch N]
 *             [--handoff-gbps G] [--handoff-latency-us U]
 *             [--qps N] [--duration S] [--seed N]
 *             [--arrival poisson|bursty|diurnal] [--burst-period S]
 *             [--burst-duty F] [--burst-peak M] [--diurnal-period S]
 *             [--diurnal-amplitude A] [--prompt-median N]
 *             [--prefix-groups N] [--prefix-tokens N]
 *             [--prefix-cache on|off] [--trace-out FILE]
 *             [--metrics-json FILE]
 *
 * All replicas share one hardware/model config here (the library
 * supports heterogeneous fleets).  In disaggregated mode the first
 * --prefill-replicas replicas (default: half, rounded up) take the
 * prefill role and the rest decode; prefill replicas stream each
 * finished sequence's KV cache to the least-loaded decode replica over
 * the handoff link.  A 1-replica aggregated fleet reproduces
 * serving_sim's report bit-identically.  Unrecognized arguments and
 * malformed numeric values (see cli_flags.h) are usage errors (exit
 * code 2).
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
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
    "  --scheme fp16|ewq4|vq4|vq2   weight scheme (default vq2)\n"
    "  --kv-scheme fp16|int4|vq4|vq2  KV-cache storage scheme (default:\n"
    "                               follows --scheme)\n"
    "  --model 7b|65b|70b           model configuration (default 7b)\n"
    "  --gpu 4090|a40               per-GPU hardware model (default 4090)\n"
    "  --tp-degree N                per-replica TP degree (default 1)\n"
    "  --hbm-gb G                   per-GPU HBM capacity, GB\n"
    "  --chunk-tokens N             chunked-prefill budget (default 512)\n"
    "  --max-batch N                max concurrent sequences per replica\n"
    "  --handoff-gbps G             prefill->decode KV link, GB/s, > 0\n"
    "  --handoff-latency-us U       per-handoff launch latency, us\n"
    "  --qps N                      mean fleet arrival rate (default 8)\n"
    "  --duration S                 arrival window, seconds (default 30)\n"
    "  --seed N                     workload seed (default 42)\n"
    "  --arrival poisson|bursty|diurnal\n"
    "                               arrival process shape (default\n"
    "                               poisson; all preserve the mean rate)\n"
    "  --burst-period S             bursty: cycle length, seconds\n"
    "  --burst-duty F               bursty: burst fraction, in (0,1)\n"
    "  --burst-peak M               bursty: burst rate multiplier, >= 1\n"
    "  --diurnal-period S           diurnal: cycle length, seconds\n"
    "  --diurnal-amplitude A        diurnal: rate swing, in [0,1)\n"
    "  --prompt-median N            median prompt length, tokens\n"
    "  --prefix-groups N            shared-prefix tenants in the trace\n"
    "  --prefix-tokens N            shared system-prompt length, > 0\n"
    "  --prefix-cache on|off        per-replica KV prefix caching\n"
    "                               (default off)\n"
    "  --trace-out FILE             write a merged Chrome/Perfetto trace\n"
    "                               (replica i on tracks prefixed r<i>/)\n"
    "  --metrics-json FILE          write fleet report + metrics as JSON\n"
    "  --help                       print this message and exit\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "fleet_sim: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

const llm::LlamaConfig &
modelByName(const std::string &name)
{
    if (name == "7b")
        return llm::llama7b();
    if (name == "65b")
        return llm::llama65b();
    if (name == "70b")
        return llm::llama70b();
    vqllm_fatal("unknown model '", name, "' (expected 7b|65b|70b)");
}

const gpusim::GpuSpec &
gpuByName(const std::string &name)
{
    if (name == "4090")
        return gpusim::rtx4090();
    if (name == "a40")
        return gpusim::teslaA40();
    vqllm_fatal("unknown gpu '", name, "' (expected 4090|a40)");
}

bool
parseOnOff(const std::string &flag, const std::string &v)
{
    if (v == "on")
        return true;
    if (v == "off")
        return false;
    usageError(flag + " expects on|off, got '" + v + "'");
}

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

    bool hbm_set = false;
    std::string trace_out;
    std::string metrics_out;
    const cli::NumericFlags num{usageError};
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("flag " + flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--replicas") {
            replicas = num.count(flag, value(), 1);
        } else if (flag == "--router") {
            std::string v = value();
            auto p = fleet::parseRouterPolicy(v);
            if (!p)
                usageError("--router expects round-robin|least-loaded|"
                           "prefix-affinity|slo-aware, got '" + v + "'");
            cfg.router = *p;
        } else if (flag == "--disaggregated") {
            disaggregated = parseOnOff(flag, value());
        } else if (flag == "--prefill-replicas") {
            prefill_replicas = num.count(flag, value());
        } else if (flag == "--scheme") {
            if (!llm::parseQuantScheme(value(), &sim.scheme))
                vqllm_fatal("unknown scheme (fp16|ewq4|vq4|vq2)");
        } else if (flag == "--kv-scheme") {
            llm::KvScheme kv;
            if (!llm::parseKvScheme(value(), &kv))
                vqllm_fatal("unknown KV scheme (fp16|int4|vq4|vq2)");
            sim.kv_scheme = kv;
        } else if (flag == "--model") {
            sim.model = &modelByName(value());
        } else if (flag == "--gpu") {
            sim.spec = &gpuByName(value());
        } else if (flag == "--tp-degree") {
            sim.tp.degree = static_cast<int>(num.count(
                flag, value(), 1, std::numeric_limits<int>::max()));
        } else if (flag == "--hbm-gb") {
            sim.hbm_gb = num.real(flag, value());
            hbm_set = true;
        } else if (flag == "--chunk-tokens") {
            sim.scheduler.chunk_tokens = num.count(flag, value());
        } else if (flag == "--max-batch") {
            sim.scheduler.max_batch = num.count(flag, value(), 1);
        } else if (flag == "--handoff-gbps") {
            cfg.handoff_link.link_bw_gbps = num.real(flag, value());
            if (cfg.handoff_link.link_bw_gbps <= 0)
                usageError("--handoff-gbps must be > 0");
        } else if (flag == "--handoff-latency-us") {
            cfg.handoff_link.collective_latency_us =
                num.real(flag, value());
            if (cfg.handoff_link.collective_latency_us < 0)
                usageError("--handoff-latency-us must be >= 0");
        } else if (flag == "--qps") {
            cfg.workload.qps = num.real(flag, value());
        } else if (flag == "--duration") {
            cfg.workload.duration_s = num.real(flag, value());
        } else if (flag == "--seed") {
            cfg.workload.seed = num.count(flag, value());
        } else if (flag == "--arrival") {
            std::string v = value();
            auto p = serving::parseArrivalPattern(v);
            if (!p)
                usageError("--arrival expects poisson|bursty|diurnal, "
                           "got '" + v + "'");
            cfg.workload.arrival = *p;
        } else if (flag == "--burst-period") {
            cfg.workload.burst_period_s = num.real(flag, value());
        } else if (flag == "--burst-duty") {
            cfg.workload.burst_duty = num.real(flag, value());
        } else if (flag == "--burst-peak") {
            cfg.workload.burst_peak = num.real(flag, value());
        } else if (flag == "--diurnal-period") {
            cfg.workload.diurnal_period_s = num.real(flag, value());
        } else if (flag == "--diurnal-amplitude") {
            cfg.workload.diurnal_amplitude = num.real(flag, value());
        } else if (flag == "--prompt-median") {
            cfg.workload.prompt_len_median = num.count(flag, value());
        } else if (flag == "--prefix-groups") {
            cfg.workload.prefix_groups = num.count(flag, value());
        } else if (flag == "--prefix-tokens") {
            cfg.workload.prefix_tokens = num.count(flag, value(), 1);
        } else if (flag == "--prefix-cache") {
            sim.prefix_cache = parseOnOff(flag, value());
        } else if (flag == "--trace-out") {
            trace_out = value();
        } else if (flag == "--metrics-json") {
            metrics_out = value();
        } else if (flag == "--help" || flag == "-h") {
            std::printf("%s", kUsage);
            return 0;
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    if (!hbm_set && sim.spec == &gpusim::teslaA40())
        sim.hbm_gb = 48.0; // A40 ships 48 GB

    if (prefill_replicas == 0)
        prefill_replicas = (replicas + 1) / 2;
    if (disaggregated &&
        (replicas < 2 || prefill_replicas >= replicas))
        usageError("disaggregation needs >= 2 replicas with at least "
                   "one prefill and one decode role");

    obs::MetricsRegistry registry;
    if (!metrics_out.empty())
        cfg.metrics = &registry;
    cfg.trace = !trace_out.empty();

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

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary);
        if (!os)
            vqllm_fatal("cannot open trace output '", trace_out, "'");
        fsim.writeChromeTrace(os);
        std::printf("trace: merged %zu replica timelines -> %s (load "
                    "in https://ui.perfetto.dev)\n",
                    replicas, trace_out.c_str());
    }
    if (!metrics_out.empty()) {
        std::ofstream os(metrics_out, std::ios::binary);
        if (!os)
            vqllm_fatal("cannot open metrics output '", metrics_out,
                        "'");
        os << "{\"report\":" << report.json()
           << ",\"metrics\":" << registry.json() << "}\n";
        std::printf("metrics: %zu instruments -> %s\n", registry.size(),
                    metrics_out.c_str());
    }
    return 0;
}
