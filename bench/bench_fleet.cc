/**
 * @file
 * Fleet-serving comparison: replicas x router policy x prefill/decode
 * disaggregation, under the VQ4 KV cache.
 *
 * The fleet sweep serves a prefill-heavy load (long prompts, chunked
 * prefill) on 1/2/4-replica fleets per router policy, aggregated vs
 * disaggregated, then searches the largest fleet arrival rate whose
 * latency tails stay inside an interactive-streaming SLO (p95 TTFT
 * and a tight p95 TBT, no rejections) — the max fleet QPS a capacity
 * planner provisions against.  The tight token-rate SLO is the regime
 * disaggregation exists for: an aggregated replica interleaves prefill
 * chunks with decode steps, so every running sequence's TBT absorbs
 * chunk-length stalls and the tail violates the SLO long before the
 * hardware saturates.  Decode-role replicas never mix prefill into
 * their iterations, so TBT stays decode-pure while prefill replicas
 * absorb the compute bursts; the VQ4 KV cache shrinks the
 * prefill->decode handoff bytes by 4x, keeping the transfer stall out
 * of the tail.  At >= 2 replicas the disaggregated fleet sustains a
 * strictly higher max QPS than the aggregated same-hardware baseline.
 *
 * A router sweep serves one bursty multi-tenant load (square-wave
 * arrivals, shared system prompts) on a 4-replica aggregated fleet per
 * policy, recording the utilization spread and latency tails each
 * policy produces under the same traffic.  Results land in
 * BENCH_fleet.json (fleet_sweep + router_sweep), which CI validates
 * via scripts/check_bench_json.py.
 *
 * `--smoke` runs shortened workloads and skips the SLO bisections (CI
 * schema-check mode); the JSON schema is identical either way.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "fleet/fleet.h"
#include "serving/simulator.h"

using namespace vqllm;

namespace {

/** SLO of the capacity search.  TTFT matches bench_serving; the TBT
 *  bound is the interactive-streaming rate (20 tok/s) under which
 *  prefill/decode interference — not raw throughput — caps capacity. */
constexpr double kTtftP95SloUs = 1500e3; // 1.5 s to first token
constexpr double kTbtP95SloUs = 50e3;    // 50 ms between tokens

/** Arrival-window seconds of one simulation (shortened by --smoke). */
double g_duration_s = 15;

/** @return prefill replicas of an n-replica disaggregated fleet. */
std::size_t
prefillSplit(std::size_t replicas)
{
    return (replicas + 1) / 2;
}

/**
 * One fleet cell of the capacity sweep: n identical replicas (FP16
 * weights, VQ4 KV), prefill-heavy load with chunked prefill so the
 * aggregated baseline already fields its best mitigation.
 */
fleet::FleetConfig
makeFleetConfig(std::size_t replicas, fleet::RouterPolicy router,
                bool disagg, double qps)
{
    fleet::FleetConfig cfg;
    cfg.router = router;
    cfg.workload.qps = qps;
    cfg.workload.duration_s = g_duration_s;
    cfg.workload.seed = 42;
    cfg.workload.prompt_len_median = 3072;
    cfg.workload.prompt_len_max = 8192;
    cfg.workload.gen_tokens_median = 128;
    const std::size_t prefill_n = disagg ? prefillSplit(replicas) : 0;
    for (std::size_t i = 0; i < replicas; ++i) {
        fleet::ReplicaConfig rep;
        rep.sim.scheme = llm::QuantScheme::FP16;
        rep.sim.kv_scheme = llm::KvScheme::VQ4;
        rep.sim.scheduler.chunk_tokens = 512;
        rep.role = !disagg              ? fleet::ReplicaRole::Aggregated
                   : i < prefill_n      ? fleet::ReplicaRole::Prefill
                                        : fleet::ReplicaRole::Decode;
        cfg.replicas.push_back(rep);
    }
    return cfg;
}

/**
 * One router cell of the imbalance sweep: a 4-replica aggregated fleet
 * under bursty multi-tenant traffic (shared system prompts give the
 * prefix-affinity policy real groups to pin).
 */
fleet::FleetConfig
makeRouterConfig(fleet::RouterPolicy router, double qps)
{
    fleet::FleetConfig cfg = makeFleetConfig(4, router, false, qps);
    cfg.workload.arrival = serving::ArrivalPattern::Bursty;
    cfg.workload.prompt_len_median = 512;
    cfg.workload.prompt_len_max = 4096;
    cfg.workload.prefix_groups = 4;
    cfg.workload.prefix_tokens = 1536;
    for (auto &rep : cfg.replicas)
        rep.sim.prefix_cache = true;
    return cfg;
}

/** Run one fleet load and check it against the SLO. */
bool
meetsSlo(const fleet::FleetConfig &cfg)
{
    fleet::FleetReport r = fleet::FleetSimulator(cfg).run();
    return r.ttft.p95_us <= kTtftP95SloUs &&
           r.tbt.p95_us <= kTbtP95SloUs && r.rejected_requests == 0;
}

/** One cell of the fleet capacity sweep (for the JSON report). */
struct FleetCell
{
    std::size_t replicas = 0;
    fleet::RouterPolicy router = fleet::RouterPolicy::RoundRobin;
    bool disagg = false;
    double ref_qps = 0;
    fleet::FleetReport report;
    double max_qps = 0;
};

/** One cell of the router sweep (for the JSON report). */
struct RouterCell
{
    fleet::RouterPolicy router = fleet::RouterPolicy::RoundRobin;
    fleet::FleetReport report;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            std::fprintf(stderr,
                         "bench_fleet: unknown flag '%s' (only "
                         "--smoke is accepted)\n",
                         argv[i]);
            return 2;
        }
    }
    if (smoke)
        g_duration_s = 6;

    std::printf("Fleet serving: Llama-7B replicas on %s, FP16 weights "
                "+ VQ4 KV, seed 42%s\n\n",
                gpusim::rtx4090().name.c_str(),
                smoke ? " (smoke mode)" : "");

    // ---- Fleet capacity sweep: replicas x router x disaggregation --
    // Reference load scales with the replica count so every fleet is
    // comparably stressed; the SLO bisection then finds each cell's
    // true capacity.
    const fleet::RouterPolicy routers[] = {
        fleet::RouterPolicy::RoundRobin,
        fleet::RouterPolicy::LeastLoaded,
        fleet::RouterPolicy::SloAware,
    };
    std::vector<FleetCell> cells;
    for (std::size_t replicas : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}})
        for (auto router : routers)
            for (bool disagg : {false, true}) {
                if (disagg && replicas < 2)
                    continue; // needs >= 1 prefill + >= 1 decode
                FleetCell cell;
                cell.replicas = replicas;
                cell.router = router;
                cell.disagg = disagg;
                cell.ref_qps = 1.5 * static_cast<double>(replicas);
                cells.push_back(cell);
            }
    // Fleet runs are internally sequential and deterministic; the
    // cells are independent, so fan them out on the host runtime.
    par::parallelFor(cells.size(), 1, [&](const par::ChunkRange &r) {
        for (std::size_t i = r.begin; i < r.end; ++i)
            cells[i].report =
                fleet::FleetSimulator(
                    makeFleetConfig(cells[i].replicas, cells[i].router,
                                    cells[i].disagg, cells[i].ref_qps))
                    .run();
    });
    if (!smoke) {
        par::parallelFor(
            cells.size(), 1, [&](const par::ChunkRange &r) {
                for (std::size_t i = r.begin; i < r.end; ++i)
                    cells[i].max_qps = bench::maxQpsUnderSlo([&](double q) {
                        return meetsSlo(makeFleetConfig(cells[i].replicas,
                                                        cells[i].router,
                                                        cells[i].disagg, q));
                    });
            });
    }

    std::printf("Capacity sweep (prompt median 3072, gen median 128, "
                "chunked prefill 512,\nreference load 1.5 QPS/replica; "
                "max QPS under p95 TTFT <= %.1f s, p95 TBT <= %.0f "
                "ms):\n\n",
                kTtftP95SloUs / 1e6, kTbtP95SloUs / 1e3);
    TextTable tbl({"replicas", "router", "mode", "TTFT p95 (ms)",
                   "TBT p95 (ms)", "tok/s", "KV xfer", "util spread",
                   "max QPS"});
    for (const auto &cell : cells) {
        const auto &r = cell.report;
        tbl.addRow({std::to_string(cell.replicas),
                    fleet::routerPolicyName(cell.router),
                    cell.disagg ? "disagg" : "aggregated",
                    formatDouble(r.ttft.p95_us / 1e3, 1),
                    formatDouble(r.tbt.p95_us / 1e3, 1),
                    formatDouble(r.fleet_tokens_per_sec, 0),
                    formatBytes(static_cast<double>(r.kv_transfer_bytes)),
                    formatDouble(r.util_imbalance, 3),
                    smoke ? "-" : formatDouble(cell.max_qps, 2)});
    }
    std::printf("%s\n", tbl.render().c_str());
    std::printf("decode replicas never interleave prefill chunks, so "
                "disaggregated TBT tails stay\ndecode-pure; the VQ4 KV "
                "cache shrinks every prefill->decode handoff 4x, and "
                "the\nfleet sustains more arrivals per replica than "
                "the aggregated baseline.\n\n");

    // ---- Router sweep under bursty multi-tenant traffic ------------
    const double router_qps = 12.0;
    const fleet::RouterPolicy all_routers[] = {
        fleet::RouterPolicy::RoundRobin,
        fleet::RouterPolicy::LeastLoaded,
        fleet::RouterPolicy::PrefixAffinity,
        fleet::RouterPolicy::SloAware,
    };
    std::vector<RouterCell> router_cells;
    for (auto router : all_routers)
        router_cells.push_back({router, {}});
    par::parallelFor(
        router_cells.size(), 1, [&](const par::ChunkRange &r) {
            for (std::size_t i = r.begin; i < r.end; ++i)
                router_cells[i].report =
                    fleet::FleetSimulator(makeRouterConfig(
                                              router_cells[i].router,
                                              router_qps))
                        .run();
        });
    std::printf("Router sweep (4 aggregated replicas, bursty arrivals "
                "at %.0f QPS mean, 4 tenants\nx 1536 shared prefix "
                "tokens, prefix cache on):\n\n",
                router_qps);
    TextTable rt({"router", "TTFT p95 (ms)", "TBT p95 (ms)", "tok/s",
                  "util min", "util max", "util spread"});
    for (const auto &cell : router_cells) {
        const auto &r = cell.report;
        rt.addRow({fleet::routerPolicyName(cell.router),
                   formatDouble(r.ttft.p95_us / 1e3, 1),
                   formatDouble(r.tbt.p95_us / 1e3, 1),
                   formatDouble(r.fleet_tokens_per_sec, 0),
                   formatDouble(r.util_min, 3),
                   formatDouble(r.util_max, 3),
                   formatDouble(r.util_imbalance, 3)});
    }
    std::printf("%s\n", rt.render().c_str());
    std::printf("load-aware policies absorb the bursts the round-robin "
                "cursor spreads blindly;\nprefix affinity trades some "
                "balance for per-tenant cache locality.\n\n");

    // ---- JSON report (validated by scripts/check_bench_json.py) ----
    std::FILE *f = std::fopen("BENCH_fleet.json", "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n  \"fleet_sweep\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &cell = cells[i];
            const auto &r = cell.report;
            std::fprintf(
                f,
                "    {\"replicas\": %zu, \"router\": \"%s\", "
                "\"disaggregated\": %s, \"prefill_replicas\": %zu, "
                "\"weight_scheme\": \"FP16\", \"kv_scheme\": \"VQ4\", "
                "\"qps\": %.3f, \"ttft_p95_ms\": %.3f, "
                "\"tbt_p95_ms\": %.3f, \"fleet_tokens_per_sec\": %.3f, "
                "\"completed\": %llu, \"rejected\": %llu, "
                "\"handoffs\": %llu, \"handoff_rejects\": %llu, "
                "\"kv_transfer_bytes\": %llu, \"kv_transfer_us\": "
                "%.3f, \"util_min\": %.5f, \"util_max\": %.5f, "
                "\"util_imbalance\": %.5f, \"max_qps_slo\": %.3f}%s\n",
                cell.replicas,
                fleet::routerPolicyName(cell.router),
                cell.disagg ? "true" : "false",
                cell.disagg ? prefillSplit(cell.replicas) : 0,
                cell.ref_qps, r.ttft.p95_us / 1e3, r.tbt.p95_us / 1e3,
                r.fleet_tokens_per_sec,
                static_cast<unsigned long long>(r.completed_requests),
                static_cast<unsigned long long>(r.rejected_requests),
                static_cast<unsigned long long>(r.handoffs),
                static_cast<unsigned long long>(r.handoff_rejects),
                static_cast<unsigned long long>(r.kv_transfer_bytes),
                r.kv_transfer_us, r.util_min, r.util_max,
                r.util_imbalance, cell.max_qps,
                i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"router_sweep\": [\n");
        for (std::size_t i = 0; i < router_cells.size(); ++i) {
            const auto &cell = router_cells[i];
            const auto &r = cell.report;
            std::fprintf(
                f,
                "    {\"router\": \"%s\", \"replicas\": 4, "
                "\"arrival\": \"bursty\", \"qps\": %.3f, "
                "\"ttft_p95_ms\": %.3f, \"tbt_p95_ms\": %.3f, "
                "\"fleet_tokens_per_sec\": %.3f, \"completed\": %llu, "
                "\"rejected\": %llu, \"util_min\": %.5f, "
                "\"util_max\": %.5f, \"util_imbalance\": %.5f}%s\n",
                fleet::routerPolicyName(cell.router), router_qps,
                r.ttft.p95_us / 1e3, r.tbt.p95_us / 1e3,
                r.fleet_tokens_per_sec,
                static_cast<unsigned long long>(r.completed_requests),
                static_cast<unsigned long long>(r.rejected_requests),
                r.util_min, r.util_max, r.util_imbalance,
                i + 1 < router_cells.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote BENCH_fleet.json\n");
    }
    return 0;
}
