/**
 * @file
 * Serving-throughput comparison: sustained QPS under an SLO for FP16,
 * element-wise 4-bit, VQ-LLM 4-bit and VQ-LLM 2-bit.
 *
 * For each scheme the harness (1) serves a fixed reference load and
 * reports the latency profile, then (2) searches the largest arrival
 * rate whose latency percentiles stay inside the SLO (p95 TTFT and p95
 * TBT) with no preemption storms — the "max QPS under SLO" a capacity
 * planner provisions against.  Quantized KV caches win twice: smaller
 * weights leave more HBM to the block pool, and fewer KV bytes per
 * token stretch that pool over more concurrent contexts, so VQ schemes
 * saturate at strictly higher QPS than FP16.
 *
 * A tensor-parallel sweep (degree 1/2/4/8 x scheme) serves the same
 * load on sharded deployments, recording throughput, latency tails,
 * the collective-time fraction and the busy-time breakdown
 * (prefill/decode/comm/codebook-upload us) per cell.  A shared-system-
 * prompt sweep serves identical multi-tenant traces with the
 * cross-request KV prefix cache off and on (per scheme, equal seed and
 * QPS), recording TTFT/TBT, prefill time, tokens served from cache and
 * the hit rate.  A KV-scheme sweep holds the weights at FP16 (equal
 * HBM left for the block pool in every cell) and varies only the KV
 * storage scheme (FP16 / VQ-4 / VQ-2) under a KV-bound load,
 * recording bytes/token, the pool capacity multiplier, the attention
 * dequant overhead, the peak number of concurrently running sequences
 * and the max QPS under SLO — isolating what compressing the cache
 * alone buys.  Results land in BENCH_serving.json (plan_cache +
 * tp_sweep + prefix_sweep + kv_sweep), which CI validates via
 * scripts/check_bench_json.py.
 *
 * `--smoke` runs shortened workloads and skips the SLO bisections (CI
 * schema-check mode); the JSON schema is identical either way.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "serving/simulator.h"

using namespace vqllm;

namespace {

/** SLO of the capacity search. */
constexpr double kTtftP95SloUs = 1500e3; // 1.5 s to first token
constexpr double kTbtP95SloUs = 200e3;   // 200 ms between tokens

/** Arrival-window seconds of one simulation (shortened by --smoke). */
double g_duration_s = 15;

/** The one workload parameterization the scheme comparison uses. */
serving::SimulatorConfig
makeConfig(llm::QuantScheme scheme, double qps)
{
    serving::SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.workload.qps = qps;
    cfg.workload.duration_s = g_duration_s;
    cfg.workload.seed = 42;
    return cfg;
}

/** Prefill-heavy load of the chunked-prefill sweep: long prompts with
 *  short answers (summarization/extraction shape), so whole-prompt
 *  prefill iterations are long enough to stall every running decode
 *  and the stalls land inside the TBT p99. */
serving::SimulatorConfig
makePrefillHeavyConfig(llm::QuantScheme scheme, double qps,
                       std::size_t chunk_tokens)
{
    serving::SimulatorConfig cfg = makeConfig(scheme, qps);
    cfg.workload.prompt_len_median = 3072;
    cfg.workload.prompt_len_max = 8192;
    cfg.workload.gen_tokens_median = 32;
    cfg.scheduler.chunk_tokens = chunk_tokens;
    return cfg;
}

/** Multi-tenant load of the shared-prefix sweep: every prompt opens
 *  with one of four 1536-token system prompts over a 512-token median
 *  tail (agent/RAG shape), so well over half of all prefill demand
 *  repeats across requests and the prefix cache can convert it into
 *  block mapping. */
constexpr std::size_t kSharedPrefixTokens = 1536;

serving::SimulatorConfig
makeSharedPrefixConfig(llm::QuantScheme scheme, double qps, bool cache)
{
    serving::SimulatorConfig cfg = makeConfig(scheme, qps);
    cfg.workload.prompt_len_median = 512;
    cfg.workload.prefix_groups = 4;
    cfg.workload.prefix_tokens = kSharedPrefixTokens;
    cfg.scheduler.chunk_tokens = 512;
    cfg.prefix_cache = cache;
    return cfg;
}

/** KV-bound load of the KV-scheme sweep: long prompts with long
 *  answers (chat-with-context shape) so resident KV — not compute —
 *  is the binding resource.  Weights stay FP16 in every cell, which
 *  pins the pool budget; only the KV storage scheme varies, so any
 *  capacity difference is the compression factor alone. */
serving::SimulatorConfig
makeKvBoundConfig(llm::KvScheme kv, double qps)
{
    serving::SimulatorConfig cfg = makeConfig(llm::QuantScheme::FP16, qps);
    cfg.kv_scheme = kv;
    cfg.workload.prompt_len_median = 2048;
    cfg.workload.prompt_len_max = 6144;
    cfg.workload.gen_tokens_median = 256;
    cfg.scheduler.chunk_tokens = 512;
    return cfg;
}

/** Run one load and check it against the SLO. */
bool
meetsSlo(const serving::SimulatorConfig &cfg)
{
    serving::ServingReport r = serving::ServingSimulator(cfg).run();
    return r.ttft.p95_us <= kTtftP95SloUs &&
           r.tbt.p95_us <= kTbtP95SloUs && r.rejected_requests == 0;
}

} // namespace

/** One cell of the tensor-parallel sweep (for the JSON report). */
struct TpCell
{
    llm::QuantScheme scheme;
    int degree;
    serving::ServingReport report;
};

/** One cell of the shared-prefix sweep (for the JSON report). */
struct PrefixCell
{
    llm::QuantScheme scheme;
    bool cache;
    serving::ServingReport report;
};

/** One cell of the KV-scheme sweep (for the JSON report). */
struct KvCell
{
    llm::KvScheme kv;
    serving::ServingReport report;
    double max_qps = 0;
};

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            std::fprintf(stderr,
                         "bench_serving: unknown flag '%s' (only "
                         "--smoke is accepted)\n",
                         argv[i]);
            return 2;
        }
    }
    if (smoke)
        g_duration_s = 6;

    const double ref_qps = 8.0;
    std::printf("Serving comparison: Llama-7B on %s, Poisson arrivals, "
                "seed 42%s\n\n",
                gpusim::rtx4090().name.c_str(),
                smoke ? " (smoke mode)" : "");

    std::printf("Latency profile at the reference load (%.0f QPS, "
                "%.0f s):\n\n",
                ref_qps, g_duration_s);
    TextTable profile({"scheme", "TTFT p95 (ms)", "TBT p95 (ms)",
                       "tok/s", "KV peak", "preempt", "book hit"});
    // The per-scheme reference-load runs are independent: fan them out
    // on the host runtime (reports come back in scheme order).
    std::vector<serving::SimulatorConfig> ref_cfgs;
    for (auto scheme : llm::kAllQuantSchemes)
        ref_cfgs.push_back(makeConfig(scheme, ref_qps));
    auto ref_reports = serving::ServingSimulator::runMany(ref_cfgs);
    for (std::size_t i = 0; i < ref_cfgs.size(); ++i) {
        auto scheme = ref_cfgs[i].scheme;
        const auto &r = ref_reports[i];
        profile.addRow(
            {llm::quantSchemeName(scheme),
             formatDouble(r.ttft.p95_us / 1e3, 1),
             formatDouble(r.tbt.p95_us / 1e3, 1),
             formatDouble(r.tokens_per_sec, 0),
             formatBytes(static_cast<double>(r.kv_peak_bytes)),
             std::to_string(r.preemptions),
             formatPercent(r.codebook_hit_rate, 1)});
    }
    std::printf("%s\n", profile.render().c_str());

    if (!smoke) {
    std::printf("Max QPS under SLO (p95 TTFT <= %.1f s, p95 TBT <= "
                "%.0f ms):\n\n",
                kTtftP95SloUs / 1e6, kTbtP95SloUs / 1e3);
    TextTable capacity({"scheme", "max QPS", "vs FP16"});
    double fp16_qps = 0;
    for (auto scheme : llm::kAllQuantSchemes) {
        double qps = bench::maxQpsUnderSlo(
            [&](double q) { return meetsSlo(makeConfig(scheme, q)); });
        if (scheme == llm::QuantScheme::FP16)
            fp16_qps = qps;
        capacity.addRow({llm::quantSchemeName(scheme),
                         formatDouble(qps, 2),
                         fp16_qps > 0
                             ? formatDouble(qps / fp16_qps, 2) + "x"
                             : "-"});
    }
    std::printf("%s\n", capacity.render().c_str());
    std::printf("quantized KV caches turn kernel-level speedups into "
                "capacity: more HBM left for\nthe block pool and fewer "
                "bytes per cached token raise the sustainable arrival "
                "rate.\n\n");

    // ---- Chunked-prefill sweep under a prefill-heavy workload.
    const double heavy_qps = 1.6;
    const std::size_t chunk = 768;
    std::printf("Chunked prefill under prefill bursts (prompt median "
                "3072 tokens, gen median 32, %.1f QPS):\n\n",
                heavy_qps);
    TextTable chunked({"scheme", "chunk", "TBT p99 (ms)", "TBT p95 (ms)",
                       "TTFT p95 (ms)", "max QPS"});
    struct SweepCell
    {
        llm::QuantScheme scheme;
        std::size_t chunk;
    };
    std::vector<SweepCell> cells;
    for (auto scheme : {llm::QuantScheme::FP16, llm::QuantScheme::VQ4})
        for (std::size_t c : {std::size_t{0}, chunk})
            cells.push_back({scheme, c});
    // The reference-load runs fan out via runMany; the per-cell SLO
    // bisections are equally independent (each internally sequential
    // and deterministic), so fan them out too.
    std::vector<serving::SimulatorConfig> cfgs;
    for (const auto &cell : cells)
        cfgs.push_back(
            makePrefillHeavyConfig(cell.scheme, heavy_qps, cell.chunk));
    auto reports = serving::ServingSimulator::runMany(cfgs);
    std::vector<double> max_qps(cells.size());
    par::parallelFor(cells.size(), 1, [&](const par::ChunkRange &r) {
        for (std::size_t i = r.begin; i < r.end; ++i)
            max_qps[i] = bench::maxQpsUnderSlo([&](double q) {
                return meetsSlo(makePrefillHeavyConfig(cells[i].scheme, q,
                                                       cells[i].chunk));
            });
    });
    for (std::size_t i = 0; i < cells.size(); ++i)
        chunked.addRow(
            {llm::quantSchemeName(cells[i].scheme),
             cells[i].chunk == 0 ? "off" : std::to_string(cells[i].chunk),
             formatDouble(reports[i].tbt.p99_us / 1e3, 1),
             formatDouble(reports[i].tbt.p95_us / 1e3, 1),
             formatDouble(reports[i].ttft.p95_us / 1e3, 1),
             formatDouble(max_qps[i], 2)});
    std::printf("%s\n", chunked.render().c_str());
    std::printf("slicing prompts into %zu-token chunks mixed with "
                "decode steps bounds the stall a\nlong prefill inflicts "
                "on running sequences: TBT tails drop without giving "
                "up\nsustainable arrival rate.\n\n",
                chunk);
    } // !smoke

    // ---- Plan-cache effect on iteration pricing --------------------
    // The same VQ4 simulation twice against one shared engine: the
    // first run compiles every kernel cold, the second fills its
    // pricer's memo tables from plan-cache hits and compiles nothing.
    serving::ServingReport cold_report, warm_report;
    double cold_ms = 0, warm_ms = 0;
    {
        using Clock = std::chrono::steady_clock;
        compiler::Engine eng(gpusim::rtx4090());
        auto timedRun = [&] {
            auto cfg = makeConfig(llm::QuantScheme::VQ4, ref_qps);
            cfg.engine = &eng;
            auto t0 = Clock::now();
            auto report = serving::ServingSimulator(cfg).run();
            double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count();
            return std::make_pair(report, ms);
        };
        std::tie(cold_report, cold_ms) = timedRun();
        std::tie(warm_report, warm_ms) = timedRun();
        std::printf("Plan-cache pricing (VQ4, %.0f QPS, shared "
                    "compiler::Engine):\n\n",
                    ref_qps);
        TextTable cache_tbl({"run", "wall (ms)", "hit rate", "hits",
                             "misses"});
        cache_tbl.addRow(
            {"cold", formatDouble(cold_ms, 1),
             formatPercent(cold_report.planCacheHitRate(), 1),
             std::to_string(cold_report.plan_cache_hits),
             std::to_string(cold_report.plan_cache_misses)});
        cache_tbl.addRow(
            {"cached", formatDouble(warm_ms, 1),
             formatPercent(warm_report.planCacheHitRate(), 1),
             std::to_string(warm_report.plan_cache_hits),
             std::to_string(warm_report.plan_cache_misses)});
        std::printf("%s\n", cache_tbl.render().c_str());
        std::printf("steady-state iterations repeat a handful of "
                    "bucketed shapes, so the pricer's memo\nanswers "
                    "them without an engine lookup; a warm cache turns "
                    "each shape's first\nprice into a hit and removes "
                    "the cold-compile tail (%.2fx wall-clock).\n\n",
                    warm_ms > 0 ? cold_ms / warm_ms : 0.0);
    }

    // ---- Tensor-parallel sweep -------------------------------------
    // The same reference load on sharded deployments: degree 1/2/4/8
    // per scheme.  Sharded decode shortens TBT while the two per-layer
    // ring all-reduces claim a growing collective fraction — and the
    // per-device pools grow because each device holds 1/G of the
    // weights.
    std::vector<TpCell> tp_cells;
    {
        std::printf("Tensor-parallel sweep (%.0f QPS, NVLink-class "
                    "links, per-layer ring all-reduces):\n\n",
                    ref_qps);
        std::vector<serving::SimulatorConfig> cfgs;
        std::vector<TpCell> cells;
        for (auto scheme : llm::kAllQuantSchemes)
            for (int degree : {1, 2, 4, 8}) {
                auto cfg = makeConfig(scheme, ref_qps);
                cfg.tp.degree = degree;
                cfgs.push_back(cfg);
                cells.push_back({scheme, degree, {}});
            }
        auto reports = serving::ServingSimulator::runMany(cfgs);
        TextTable tp_tbl({"scheme", "TP", "tok/s", "TBT p95 (ms)",
                          "TTFT p95 (ms)", "comm %", "KV agg (GB)"});
        for (std::size_t i = 0; i < cells.size(); ++i) {
            cells[i].report = reports[i];
            const auto &r = reports[i];
            tp_tbl.addRow(
                {llm::quantSchemeName(cells[i].scheme),
                 std::to_string(cells[i].degree),
                 formatDouble(r.tokens_per_sec, 0),
                 formatDouble(r.tbt.p95_us / 1e3, 1),
                 formatDouble(r.ttft.p95_us / 1e3, 1),
                 formatPercent(r.comm_fraction, 1),
                 formatDouble(
                     static_cast<double>(r.kv_capacity_bytes) / 1e9,
                     1)});
        }
        std::printf("%s\n", tp_tbl.render().c_str());
        std::printf("sharding cuts per-token latency until collectives "
                    "dominate; VQ schemes keep their\nedge at every "
                    "degree and the per-device KV pools grow with the "
                    "weight shards.\n\n");
        tp_cells = std::move(cells);
    }

    // ---- Shared-system-prompt sweep (prefix cache off vs on) -------
    // Identical arrival traces per pair (same seed and QPS, the cache
    // flag does not perturb workload generation): cache-off prefills
    // every shared system prompt from scratch, cache-on maps the
    // repeated blocks in by reference and prefills only the tails.
    const double prefix_qps = 4.0;
    const std::uint64_t prefix_seed = 42;
    std::vector<PrefixCell> prefix_cells;
    std::uint64_t prefix_prompt_tokens = 0;
    {
        std::printf("Shared-system-prompt sweep (4 tenants x 1536 "
                    "prefix tokens, 512-token median tails,\n%.0f QPS, "
                    "prefix cache off vs on):\n\n",
                    prefix_qps);
        auto trace = serving::generateWorkload(
            makeSharedPrefixConfig(llm::QuantScheme::FP16, prefix_qps,
                                   false)
                .workload);
        for (const auto &r : trace)
            prefix_prompt_tokens += r.prompt_len;
        std::vector<serving::SimulatorConfig> cfgs;
        std::vector<PrefixCell> cells;
        for (auto scheme : llm::kAllQuantSchemes)
            for (bool cache : {false, true}) {
                cfgs.push_back(
                    makeSharedPrefixConfig(scheme, prefix_qps, cache));
                cells.push_back({scheme, cache, {}});
            }
        auto reports = serving::ServingSimulator::runMany(cfgs);
        TextTable tbl({"scheme", "cache", "TTFT mean (ms)",
                       "TTFT p95 (ms)", "TBT p95 (ms)", "prefill (s)",
                       "saved tok", "hit rate"});
        for (std::size_t i = 0; i < cells.size(); ++i) {
            cells[i].report = reports[i];
            const auto &r = reports[i];
            tbl.addRow({llm::quantSchemeName(cells[i].scheme),
                        cells[i].cache ? "on" : "off",
                        formatDouble(r.ttft.mean_us / 1e3, 1),
                        formatDouble(r.ttft.p95_us / 1e3, 1),
                        formatDouble(r.tbt.p95_us / 1e3, 1),
                        formatDouble(r.prefill_us / 1e6, 2),
                        std::to_string(r.prefix_matched_tokens),
                        formatPercent(r.prefix_hit_rate, 1)});
        }
        std::printf("%s\n", tbl.render().c_str());
        double worst_reduction = 1.0;
        for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
            double off_ttft = cells[i].report.ttft.mean_us;
            double on_ttft = cells[i + 1].report.ttft.mean_us;
            if (off_ttft > 0)
                worst_reduction =
                    std::min(worst_reduction, 1.0 - on_ttft / off_ttft);
        }
        std::printf("mapping the shared prefix in from cache removes "
                    "its prefill from the critical path:\nmean TTFT "
                    "drops %.0f%%+ at every scheme on identical "
                    "arrival traces.\n\n",
                    worst_reduction * 100.0);
        prefix_cells = std::move(cells);
    }

    // ---- KV-scheme sweep (FP16 weights, varying KV storage) --------
    // Every cell serves the same KV-bound trace from the same pool
    // budget (FP16 weights fix the HBM split); only the KV scheme
    // changes.  Compressing the cache multiplies how many tokens the
    // pool holds, which shows up directly as more concurrently
    // running sequences and a higher sustainable arrival rate.
    const double kv_qps = 8.0;
    std::vector<KvCell> kv_cells;
    {
        std::printf("KV-scheme sweep (FP16 weights, prompt median 2048, "
                    "gen median 256, %.0f QPS,\nequal pool bytes per "
                    "cell):\n\n",
                    kv_qps);
        const llm::KvScheme kv_schemes[] = {llm::KvScheme::FP16,
                                            llm::KvScheme::VQ4,
                                            llm::KvScheme::VQ2};
        std::vector<serving::SimulatorConfig> cfgs;
        std::vector<KvCell> cells;
        for (auto kv : kv_schemes) {
            cfgs.push_back(makeKvBoundConfig(kv, kv_qps));
            cells.push_back({kv, {}, 0.0});
        }
        auto reports = serving::ServingSimulator::runMany(cfgs);
        for (std::size_t i = 0; i < cells.size(); ++i)
            cells[i].report = reports[i];
        if (!smoke) {
            // Max-QPS bisections per KV scheme, fanned out like the
            // chunked-prefill sweep (each internally deterministic).
            par::parallelFor(
                cells.size(), 1, [&](const par::ChunkRange &r) {
                    for (std::size_t i = r.begin; i < r.end; ++i)
                        cells[i].max_qps =
                            bench::maxQpsUnderSlo([&](double q) {
                                return meetsSlo(
                                    makeKvBoundConfig(cells[i].kv, q));
                            });
                });
        }
        TextTable kv_tbl({"KV scheme", "B/token", "capacity", "peak run",
                          "TTFT p95 (ms)", "TBT p95 (ms)", "tok/s",
                          "attn delta (ms)", "max QPS"});
        for (const auto &cell : cells) {
            const auto &r = cell.report;
            kv_tbl.addRow(
                {llm::kvSchemeName(cell.kv),
                 std::to_string(r.kv_bytes_per_token),
                 formatDouble(r.kv_capacity_multiplier, 2) + "x",
                 std::to_string(r.peak_running_seqs),
                 formatDouble(r.ttft.p95_us / 1e3, 1),
                 formatDouble(r.tbt.p95_us / 1e3, 1),
                 formatDouble(r.tokens_per_sec, 0),
                 formatDouble(r.kv_dequant_us / 1e3, 2),
                 smoke ? "-" : formatDouble(cell.max_qps, 2)});
        }
        std::printf("%s\n", kv_tbl.render().c_str());
        std::printf("with weights (and the pool budget) held at FP16, "
                    "compressing only the KV cache\nmultiplies resident "
                    "context: more sequences run concurrently from the "
                    "same bytes,\nand reading fewer KV bytes per "
                    "attention step outweighs the dequant cost (the\n"
                    "attn delta is the signed decode-attention time vs "
                    "FP16 KV).\n\n");
        kv_cells = std::move(cells);
    }

    // ---- JSON report (validated by scripts/check_bench_json.py) ----
    std::FILE *f = std::fopen("BENCH_serving.json", "w");
    if (f != nullptr) {
        std::fprintf(
            f,
            "{\n  \"plan_cache\": {\"cold_ms\": %.3f, "
            "\"cached_ms\": %.3f, \"speedup\": %.3f,\n"
            "    \"cold_hit_rate\": %.4f, \"cached_hit_rate\": "
            "%.4f,\n    \"cold_misses\": %llu, \"cached_misses\": "
            "%llu},\n",
            cold_ms, warm_ms, warm_ms > 0 ? cold_ms / warm_ms : 0.0,
            cold_report.planCacheHitRate(),
            warm_report.planCacheHitRate(),
            static_cast<unsigned long long>(
                cold_report.plan_cache_misses),
            static_cast<unsigned long long>(
                warm_report.plan_cache_misses));
        std::fprintf(f, "  \"tp_sweep\": [\n");
        for (std::size_t i = 0; i < tp_cells.size(); ++i) {
            const auto &cell = tp_cells[i];
            const auto &r = cell.report;
            std::fprintf(
                f,
                "    {\"scheme\": \"%s\", \"degree\": %d, "
                "\"tokens_per_sec\": %.3f, \"tbt_p95_ms\": %.3f, "
                "\"ttft_p95_ms\": %.3f, \"comm_fraction\": %.5f, "
                "\"kv_capacity_gb\": %.3f, \"preemptions\": %llu, "
                "\"completed\": %llu, "
                "\"busy_us\": %.3f, \"prefill_us\": %.3f, "
                "\"decode_us\": %.3f, \"comm_us\": %.3f, "
                "\"codebook_upload_us\": %.3f}%s\n",
                llm::quantSchemeName(cell.scheme), cell.degree,
                r.tokens_per_sec, r.tbt.p95_us / 1e3,
                r.ttft.p95_us / 1e3, r.comm_fraction,
                static_cast<double>(r.kv_capacity_bytes) / 1e9,
                static_cast<unsigned long long>(r.preemptions),
                static_cast<unsigned long long>(r.completed_requests),
                r.busy_time_us, r.prefill_us, r.decode_us, r.comm_us,
                r.codebook_upload_us,
                i + 1 < tp_cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"prefix_sweep\": [\n");
        for (std::size_t i = 0; i < prefix_cells.size(); ++i) {
            const auto &cell = prefix_cells[i];
            const auto &r = cell.report;
            std::fprintf(
                f,
                "    {\"scheme\": \"%s\", \"prefix_cache\": %s, "
                "\"seed\": %llu, \"qps\": %.3f, "
                "\"ttft_mean_ms\": %.3f, \"ttft_p95_ms\": %.3f, "
                "\"tbt_p95_ms\": %.3f, \"prefill_us\": %.3f, "
                "\"busy_us\": %.3f, \"tokens_saved\": %llu, "
                "\"prompt_tokens\": %llu, \"prefix_len\": %llu, "
                "\"hit_rate\": %.6f, "
                "\"cow_forks\": %llu, \"preemptions\": %llu, "
                "\"completed\": %llu}%s\n",
                llm::quantSchemeName(cell.scheme),
                cell.cache ? "true" : "false",
                static_cast<unsigned long long>(prefix_seed),
                prefix_qps, r.ttft.mean_us / 1e3, r.ttft.p95_us / 1e3,
                r.tbt.p95_us / 1e3, r.prefill_us, r.busy_time_us,
                static_cast<unsigned long long>(
                    r.prefix_matched_tokens),
                static_cast<unsigned long long>(prefix_prompt_tokens),
                static_cast<unsigned long long>(kSharedPrefixTokens),
                r.prefix_hit_rate,
                static_cast<unsigned long long>(r.cow_forks),
                static_cast<unsigned long long>(r.preemptions),
                static_cast<unsigned long long>(r.completed_requests),
                i + 1 < prefix_cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"kv_sweep\": [\n");
        for (std::size_t i = 0; i < kv_cells.size(); ++i) {
            const auto &cell = kv_cells[i];
            const auto &r = cell.report;
            std::fprintf(
                f,
                "    {\"weight_scheme\": \"FP16\", \"kv_scheme\": "
                "\"%s\", \"kv_scale\": %.4f, "
                "\"bytes_per_token\": %llu, "
                "\"capacity_multiplier\": %.4f, "
                "\"pool_bytes\": %llu, \"peak_running\": %llu, "
                "\"dequant_us\": %.3f, \"max_qps_slo\": %.3f, "
                "\"qps\": %.3f, \"tokens_per_sec\": %.3f, "
                "\"ttft_p95_ms\": %.3f, \"tbt_p95_ms\": %.3f, "
                "\"preemptions\": %llu, \"rejected\": %llu, "
                "\"completed\": %llu}%s\n",
                llm::kvSchemeToken(cell.kv),
                llm::kvSchemeScale(cell.kv),
                static_cast<unsigned long long>(r.kv_bytes_per_token),
                r.kv_capacity_multiplier,
                static_cast<unsigned long long>(r.kv_capacity_bytes),
                static_cast<unsigned long long>(r.peak_running_seqs),
                r.kv_dequant_us, cell.max_qps, kv_qps,
                r.tokens_per_sec, r.ttft.p95_us / 1e3,
                r.tbt.p95_us / 1e3,
                static_cast<unsigned long long>(r.preemptions),
                static_cast<unsigned long long>(r.rejected_requests),
                static_cast<unsigned long long>(r.completed_requests),
                i + 1 < kv_cells.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote BENCH_serving.json\n");
    }
    return 0;
}
