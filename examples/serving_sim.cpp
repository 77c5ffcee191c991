/**
 * @file
 * serving_sim: continuous-batching serving simulation from the command
 * line.
 *
 *   serving_sim [simulator flags, see cli_flags.h]
 *               [--policy fcfs|priority|edf] [--priority-levels N]
 *               [--block-tokens N] [--codebook-slots N]
 *               [--codebook-groups N] [--link-gbps G]
 *               [--collective-us U] [--trace-in FILE]
 *
 * Generates a Poisson request trace, serves it with the
 * policy-driven continuous-batching scheduler over a paged VQ KV
 * cache (chunked prefill when --chunk-tokens > 0; head-sharded KV in
 * one block table and per-layer ring all-reduces when --tp-degree > 1),
 * and
 * reports TTFT/TBT/E2E percentiles, sustained tokens/sec, the KV
 * high-water mark and codebook residency statistics.  Deterministic
 * in --seed.  Unknown flags and malformed values (see cli_flags.h)
 * are usage errors (exit code 2).
 *
 * --trace-out writes a Chrome trace-event JSON timeline of the run
 * (open in https://ui.perfetto.dev or chrome://tracing);
 * --metrics-json writes the full report plus the metrics registry as
 * JSON.  Neither flag changes the simulation or the report.
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "cli_flags.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/simulator.h"

using namespace vqllm;

namespace {

const char kUsage[] =
    "usage: serving_sim [options]\n"
    "  --policy fcfs|priority|edf   scheduling policy (default fcfs)\n"
    "  --priority-levels N          distinct priority levels in the trace\n"
    "  --block-tokens N             KV tokens per paged block\n"
    "  --codebook-slots N           resident codebook-group slots\n"
    "  --codebook-groups N          distinct codebook groups in the trace\n"
    "  --link-gbps G                all-reduce link bandwidth, GB/s, > 0\n"
    "  --collective-us U            per-collective launch latency, us\n"
    "  --trace-in FILE              replay a JSONL workload trace\n"
    "                               (arrival_us, prompt_len, output_len,\n"
    "                               optional group; malformed lines are a\n"
    "                               hard error) instead of sampling\n";

} // namespace

int
main(int argc, char **argv)
{
    serving::SimulatorConfig cfg;
    cfg.spec = &gpusim::rtx4090();
    cfg.model = &llm::llama7b();
    cfg.workload.qps = 8;
    cfg.workload.duration_s = 60;

    cli::SimFlags flags("serving_sim", kUsage, cfg, cfg.workload);
    flags.parse(argc, argv, [&] {
        const std::string &flag = flags.flag();
        if (flag == "--policy") {
            const std::string v = flags.value();
            if (!serving::parsePolicyKind(v, &cfg.scheduler.policy))
                flags.badChoice(v, "fcfs|priority|edf");
        } else if (flag == "--priority-levels") {
            cfg.workload.priority_levels = flags.count();
        } else if (flag == "--block-tokens") {
            cfg.kv_block_tokens = flags.count(1);
        } else if (flag == "--codebook-slots") {
            cfg.codebook_slots = flags.count(1);
        } else if (flag == "--codebook-groups") {
            cfg.workload.num_codebook_groups = flags.count();
        } else if (flag == "--link-gbps") {
            cfg.tp.link_bw_gbps = flags.real();
            if (cfg.tp.link_bw_gbps <= 0)
                flags.usageError("--link-gbps must be > 0");
        } else if (flag == "--collective-us") {
            cfg.tp.collective_latency_us = flags.real();
            if (cfg.tp.collective_latency_us < 0)
                flags.usageError("--collective-us must be >= 0");
        } else if (flag == "--trace-in") {
            cfg.workload.trace_path = flags.value();
        } else {
            return false;
        }
        return true;
    });

    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    if (!flags.trace_out.empty())
        cfg.trace = &recorder;
    if (!flags.metrics_out.empty())
        cfg.metrics = &registry;

    serving::ServingSimulator sim(cfg);
    std::string chunk_note =
        cfg.scheduler.chunk_tokens > 0
            ? ", chunked prefill @" +
                  std::to_string(cfg.scheduler.chunk_tokens)
            : "";
    std::string tp_note =
        cfg.tp.degree > 1
            ? ", TP degree " + std::to_string(cfg.tp.degree) + " @ " +
                  std::to_string(
                      static_cast<int>(cfg.tp.link_bw_gbps)) +
                  " GB/s"
            : "";
    std::string prefix_note =
        cfg.workload.prefix_groups > 0
            ? ", " + std::to_string(cfg.workload.prefix_groups) +
                  " prefix groups x " +
                  std::to_string(cfg.workload.prefix_tokens) +
                  " tokens (cache " +
                  (cfg.prefix_cache ? "on" : "off") + ")"
            : "";
    std::string kv_note =
        cfg.kv_scheme.has_value()
            ? std::string(", KV ") + llm::kvSchemeName(*cfg.kv_scheme)
            : "";
    std::string replay_note =
        !cfg.workload.trace_path.empty()
            ? ", replaying " + cfg.workload.trace_path
            : "";
    std::string arrival_note =
        cfg.workload.arrival != serving::ArrivalPattern::Poisson
            ? std::string(", ") +
                  serving::arrivalPatternName(cfg.workload.arrival) +
                  " arrivals"
            : "";
    std::printf("serving %s on %s / %s: %.1f QPS for %.0f s (seed "
                "%llu, policy %s%s%s%s%s%s%s)\n",
                cfg.model->name.c_str(), cfg.spec->name.c_str(),
                llm::quantSchemeName(cfg.scheme), cfg.workload.qps,
                cfg.workload.duration_s,
                static_cast<unsigned long long>(cfg.workload.seed),
                serving::policyKindName(cfg.scheduler.policy),
                chunk_note.c_str(), tp_note.c_str(),
                prefix_note.c_str(), kv_note.c_str(),
                replay_note.c_str(), arrival_note.c_str());
    const std::uint64_t kv_per_device =
        serving::kvCapacityPerDeviceBytes(cfg);
    const std::uint64_t kv_total =
        kv_per_device * static_cast<std::size_t>(cfg.tp.degree);
    if (cfg.tp.degree > 1)
        std::printf("KV pools: %zu devices x %.2f GB under each weight "
                    "shard (%.2f GB aggregate)\n",
                    static_cast<std::size_t>(cfg.tp.degree),
                    static_cast<double>(kv_per_device) / 1e9,
                    static_cast<double>(kv_total) / 1e9);
    else
        std::printf("KV pool: %.2f GB under the scheme's weight "
                    "footprint\n",
                    static_cast<double>(kv_total) / 1e9);
    auto report = sim.run();
    std::printf("%s", report.summary().c_str());

    if (!flags.trace_out.empty()) {
        std::ofstream os(flags.trace_out, std::ios::binary);
        if (!os)
            vqllm_fatal("cannot open trace output '", flags.trace_out, "'");
        recorder.writeChromeJson(os);
        std::printf("trace: %zu events -> %s (load in "
                    "https://ui.perfetto.dev)\n",
                    recorder.eventCount(), flags.trace_out.c_str());
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
