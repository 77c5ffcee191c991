/**
 * @file
 * serving_sim: continuous-batching serving simulation from the command
 * line.
 *
 *   serving_sim [--scheme fp16|ewq4|vq4|vq2]
 *               [--kv-scheme fp16|int4|vq4|vq2] [--model 7b|65b|70b]
 *               [--gpu 4090|a40] [--qps N] [--duration S] [--seed N]
 *               [--arrival poisson|bursty|diurnal] [--burst-period S]
 *               [--burst-duty F] [--burst-peak M] [--diurnal-period S]
 *               [--diurnal-amplitude A]
 *               [--max-batch N] [--block-tokens N] [--hbm-gb G]
 *               [--codebook-slots N] [--codebook-groups N]
 *               [--policy fcfs|priority|edf] [--chunk-tokens N]
 *               [--priority-levels N] [--prompt-median N]
 *               [--tp-degree N] [--link-gbps G] [--collective-us U]
 *               [--prefix-groups N] [--prefix-tokens N]
 *               [--prefix-cache on|off] [--trace-in FILE]
 *               [--trace-out FILE] [--metrics-json FILE]
 *
 * Generates a Poisson request trace, serves it with the
 * policy-driven continuous-batching scheduler over a paged VQ KV
 * cache (chunked prefill when --chunk-tokens > 0; head-sharded KV in
 * one block table and per-layer ring all-reduces when --tp-degree > 1),
 * and
 * reports TTFT/TBT/E2E percentiles, sustained tokens/sec, the KV
 * high-water mark and codebook residency statistics.  Deterministic
 * in --seed.  Unrecognized arguments and malformed numeric values
 * (see cli_flags.h) are usage errors (exit code 2).
 *
 * --trace-out writes a Chrome trace-event JSON timeline of the run
 * (open in https://ui.perfetto.dev or chrome://tracing);
 * --metrics-json writes the full report plus the metrics registry as
 * JSON.  Neither flag changes the simulation or the report.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
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
    "  --scheme fp16|ewq4|vq4|vq2   quantization scheme (default vq2)\n"
    "  --kv-scheme fp16|int4|vq4|vq2  KV-cache storage scheme (default:\n"
    "                               follows --scheme)\n"
    "  --model 7b|65b|70b           model configuration (default 7b)\n"
    "  --gpu 4090|a40               per-GPU hardware model (default 4090)\n"
    "  --qps N                      mean arrival rate (default 8)\n"
    "  --duration S                 arrival window, seconds (default 60)\n"
    "  --seed N                     workload seed (default 42)\n"
    "  --arrival poisson|bursty|diurnal\n"
    "                               arrival process shape (default\n"
    "                               poisson; all preserve the mean rate)\n"
    "  --burst-period S             bursty: cycle length, seconds\n"
    "  --burst-duty F               bursty: burst fraction, in (0,1)\n"
    "  --burst-peak M               bursty: burst rate multiplier, >= 1\n"
    "  --diurnal-period S           diurnal: cycle length, seconds\n"
    "  --diurnal-amplitude A        diurnal: rate swing, in [0,1)\n"
    "  --max-batch N                max concurrent sequences\n"
    "  --block-tokens N             KV tokens per paged block\n"
    "  --hbm-gb G                   per-GPU HBM capacity, GB\n"
    "  --codebook-slots N           resident codebook-group slots\n"
    "  --codebook-groups N          distinct codebook groups in the trace\n"
    "  --policy fcfs|priority|edf   scheduling policy (default fcfs)\n"
    "  --chunk-tokens N             chunked-prefill token budget (0 = off)\n"
    "  --priority-levels N          distinct priority levels in the trace\n"
    "  --prompt-median N            median prompt length, tokens\n"
    "  --tp-degree N                tensor-parallel degree, >= 1 (default 1)\n"
    "  --link-gbps G                all-reduce link bandwidth, GB/s, > 0\n"
    "  --collective-us U            per-collective launch latency, us\n"
    "  --prefix-groups N            shared-prefix tenants in the trace\n"
    "                               (0 = no shared prefixes, the default)\n"
    "  --prefix-tokens N            shared system-prompt length, tokens, > 0\n"
    "  --prefix-cache on|off        cross-request KV prefix caching\n"
    "                               (default off)\n"
    "  --trace-in FILE              replay a JSONL workload trace\n"
    "                               (arrival_us, prompt_len, output_len,\n"
    "                               optional group; malformed lines are a\n"
    "                               hard error) instead of sampling\n"
    "  --trace-out FILE             write a Chrome/Perfetto trace JSON\n"
    "  --metrics-json FILE          write report + metrics as JSON\n"
    "  --help                       print this message and exit\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "serving_sim: %s\n%s", message.c_str(), kUsage);
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

} // namespace

int
main(int argc, char **argv)
{
    serving::SimulatorConfig cfg;
    cfg.spec = &gpusim::rtx4090();
    cfg.model = &llm::llama7b();
    cfg.workload.qps = 8;
    cfg.workload.duration_s = 60;

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
        if (flag == "--scheme") {
            if (!llm::parseQuantScheme(value(), &cfg.scheme))
                vqllm_fatal("unknown scheme (fp16|ewq4|vq4|vq2)");
        } else if (flag == "--kv-scheme") {
            llm::KvScheme kv;
            if (!llm::parseKvScheme(value(), &kv))
                vqllm_fatal("unknown KV scheme (fp16|int4|vq4|vq2)");
            cfg.kv_scheme = kv;
        } else if (flag == "--model") {
            cfg.model = &modelByName(value());
        } else if (flag == "--gpu") {
            cfg.spec = &gpuByName(value());
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
        } else if (flag == "--max-batch") {
            cfg.scheduler.max_batch = num.count(flag, value(), 1);
        } else if (flag == "--block-tokens") {
            cfg.kv_block_tokens = num.count(flag, value(), 1);
        } else if (flag == "--hbm-gb") {
            cfg.hbm_gb = num.real(flag, value());
            hbm_set = true;
        } else if (flag == "--codebook-slots") {
            cfg.codebook_slots = num.count(flag, value(), 1);
        } else if (flag == "--codebook-groups") {
            cfg.workload.num_codebook_groups = num.count(flag, value());
        } else if (flag == "--policy") {
            if (!serving::parsePolicyKind(value(), &cfg.scheduler.policy))
                vqllm_fatal("unknown policy (fcfs|priority|edf)");
        } else if (flag == "--chunk-tokens") {
            cfg.scheduler.chunk_tokens = num.count(flag, value());
        } else if (flag == "--priority-levels") {
            cfg.workload.priority_levels = num.count(flag, value());
        } else if (flag == "--prompt-median") {
            cfg.workload.prompt_len_median = num.count(flag, value());
        } else if (flag == "--tp-degree") {
            cfg.tp.degree = static_cast<int>(num.count(
                flag, value(), 1, std::numeric_limits<int>::max()));
        } else if (flag == "--link-gbps") {
            cfg.tp.link_bw_gbps = num.real(flag, value());
            if (cfg.tp.link_bw_gbps <= 0)
                usageError("--link-gbps must be > 0");
        } else if (flag == "--collective-us") {
            cfg.tp.collective_latency_us = num.real(flag, value());
            if (cfg.tp.collective_latency_us < 0)
                usageError("--collective-us must be >= 0");
        } else if (flag == "--prefix-groups") {
            cfg.workload.prefix_groups = num.count(flag, value());
        } else if (flag == "--prefix-tokens") {
            cfg.workload.prefix_tokens = num.count(flag, value(), 1);
        } else if (flag == "--prefix-cache") {
            std::string v = value();
            if (v == "on")
                cfg.prefix_cache = true;
            else if (v == "off")
                cfg.prefix_cache = false;
            else
                usageError("--prefix-cache expects on|off, got '" + v +
                           "'");
        } else if (flag == "--trace-in") {
            cfg.workload.trace_path = value();
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
    if (!hbm_set && cfg.spec == &gpusim::teslaA40())
        cfg.hbm_gb = 48.0; // A40 ships 48 GB

    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    if (!trace_out.empty())
        cfg.trace = &recorder;
    if (!metrics_out.empty())
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
    if (cfg.tp.degree > 1)
        std::printf("KV pools: %zu devices x %.2f GB under each weight "
                    "shard (%.2f GB aggregate)\n",
                    static_cast<std::size_t>(cfg.tp.degree),
                    static_cast<double>(sim.kvCapacityBytesPerDevice()) /
                        1e9,
                    static_cast<double>(sim.kvCapacityBytes()) / 1e9);
    else
        std::printf("KV pool: %.2f GB under the scheme's weight "
                    "footprint\n",
                    static_cast<double>(sim.kvCapacityBytes()) / 1e9);
    auto report = sim.run();
    std::printf("%s", report.summary().c_str());

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary);
        if (!os)
            vqllm_fatal("cannot open trace output '", trace_out, "'");
        recorder.writeChromeJson(os);
        std::printf("trace: %zu events -> %s (load in "
                    "https://ui.perfetto.dev)\n",
                    recorder.eventCount(), trace_out.c_str());
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
