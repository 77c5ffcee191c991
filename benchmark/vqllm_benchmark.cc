/**
 * @file
 * The repo benchmark's measuring program: runs one named workload
 * against the library's public API, times every call it makes from
 * outside, checks the outputs, and prints one JSON line of metrics.
 * benchmark/run.py builds and runs it; benchmark/README.md defines
 * every workload and metric.
 *
 *   vqllm_benchmark --workload NAME [--seed N] [--seconds S]
 *                   [--trace FILE]
 *
 * Every run first runs one untimed reference rep, then repeats reps —
 * a fresh set-up, then one cold pass — until --seconds have elapsed
 * (setup_s: median set-up; wall_s: fastest pass).  With --trace it then
 * runs one more rep while recording host-clock spans around each
 * library call into a Chrome trace (FILE), and derives the per-layer
 * metrics.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "fleet/fleet.h"
#include "obs/trace.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/sim_core.h"
#include "serving/simulator.h"
#include "vq/quantizer.h"

using namespace vqllm;

namespace {

using Clock = std::chrono::steady_clock;

/** Timed reps per run at least, whatever --seconds says. */
constexpr int kMinReps = 3;

/** Multiples of the nominal arrival rate the max-QPS ladder climbs. */
constexpr double kLadder[] = {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0};

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    std::string trace_path;
};

/** Metrics and correctness gates of one run. */
struct Result
{
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    /** Gate name -> passed (a gate checked several times must pass
     *  every time). */
    std::map<std::string, bool> gates;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    gate(const std::string &name, bool ok)
    {
        auto [it, inserted] = gates.emplace(name, ok);
        if (!inserted)
            it->second = it->second && ok;
    }
};

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
pct(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return serving::percentile(v, q);
}

/** Peak RSS of this process's address space (VmHWM).  Not ru_maxrss:
 *  that survives exec, so it would report the launching process's
 *  peak whenever that was larger. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    std::fprintf(stderr, "vqllm_benchmark: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

/**
 * Host-clock spans for the traced pass: timestamps are microseconds
 * since the program started.  A null recorder makes every call a no-op,
 * so untraced passes run the same code.
 */
struct Tracer
{
    obs::TraceRecorder *rec = nullptr;
    Clock::time_point origin = Clock::now();

    void
    span(const char *name, const char *cat, Clock::time_point a,
         Clock::time_point b, std::vector<obs::TraceArg> args = {}) const
    {
        if (rec == nullptr)
            return;
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin)
                .count();
        };
        rec->span(name, cat, 0, us(a), us(b) - us(a), std::move(args));
    }
};

const Tracer kUntraced;

/** Host times of one rep: its set-up, then its cold pass. */
struct RepTime
{
    double setup_s = 0;
    double wall_s = 0;
};

/**
 * Repeat `rep` kMinReps times and until `budget_s` has elapsed.  Each
 * rep sets up afresh, so set-up and pass samples span the same time.
 * setup_s is the median set-up.  wall_s is the fastest pass: a pass is
 * deterministic work that interference from other tenants only slows,
 * and their slow spells (~20 s at up to +45% on a shared 4-core VM)
 * outlast a rep, so a median of reps moves with them and the minimum
 * does not.  Peak RSS is read right after.
 */
void
timedReps(double budget_s, Result &res, const std::function<RepTime()> &rep)
{
    std::vector<double> setup, wall;
    const auto start = Clock::now();
    while (wall.size() < kMinReps || seconds(start, Clock::now()) < budget_s) {
        const RepTime t = rep();
        setup.push_back(t.setup_s);
        wall.push_back(t.wall_s);
    }
    res.e2e["setup_s"] = pct(setup, 0.5);
    res.e2e["wall_s"] = *std::min_element(wall.begin(), wall.end());
    res.e2e["peak_rss_mb"] = peakRssMb();
    res.layer["bench.reps"] = static_cast<double>(wall.size());
}

/**
 * Highest ladder rate r such that every rung up to r passes.  Rungs
 * run in ascending batches of `width` (one per host thread); climbing
 * stops after the first batch with a failing rung.
 */
double
climbLadder(double nominal,
            const std::function<std::vector<bool>(std::vector<double>)> &run)
{
    const std::size_t width = static_cast<std::size_t>(par::maxThreads());
    const std::size_t n = std::size(kLadder);
    double best = 0;
    for (std::size_t lo = 0; lo < n; lo += width) {
        std::vector<double> rates;
        for (std::size_t i = lo; i < std::min(n, lo + width); ++i)
            rates.push_back(nominal * kLadder[i]);
        const std::vector<bool> pass = run(rates);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            if (!pass[i])
                return best;
            best = rates[i];
        }
    }
    return best;
}

// ===================================================== compile_sweep

struct SweepInputs
{
    std::map<std::string, vq::AccessHistogram> hists;
    /** Fig. 13 cases: one kernel shape and VQ config each, compiled at
     *  every level of the optimization ladder. */
    std::vector<compiler::KernelRequest> cases;
    /** (case, level) pairs in the seed's shuffled order. */
    std::vector<std::pair<std::size_t, engine::OptLevel>> order;
};

/**
 * Fit one access histogram the way bench::sampleHistogram does —
 * quantize a clustered synthetic sample, profile its indices — but
 * from seeded data and without memoization, so every set-up pays the
 * fit and the seed reaches the cost model.
 */
vq::AccessHistogram
fitHistogram(const vq::VQConfig &cfg, bool kv, Rng &rng)
{
    ClusteredDataSpec spec;
    spec.num_clusters = kv ? 32 : 512;
    spec.popularity_alpha = 0.3;
    if (!kv && cfg.storedEntries() >= 2048) {
        spec.duplicate_pool = 22;
        spec.duplicate_fraction = 0.16;
    }
    std::size_t rows = cfg.storedEntries() >= 2048 ? 8192
                       : kv                        ? 4096
                                                   : 2048;
    std::size_t cols = cfg.vector_size;
    Tensor<float> data = kv ? generateKvCache(1, rows, cols, rng)
                            : generateClustered(rows, cols, spec, rng);
    if (kv)
        data.reshape({rows, cols});
    vq::VQConfig book_cfg = cfg;
    book_cfg.scope = vq::CodebookScope::PerTensor;
    vq::KMeansOptions opts;
    opts.max_iters = 4;
    opts.sample_limit = 1024;
    auto qt = vq::VectorQuantizer(book_cfg, opts).quantize(data);
    return std::move(vq::profileAccesses(qt).histograms[0]);
}

/** Histograms plus the 42-case Fig. 13 matrix (QuiP#-4/AQLM-3/GPTVQ-2
 *  weights x GeMM/GeMV shapes, CQ-2/CQ-4 attention x batch x seq, for
 *  Llama-7B and -65B) at all six levels: 252 requests. */
SweepInputs
sweepSetup(std::uint64_t seed, const Tracer &tr)
{
    SweepInputs in;
    Rng rng(seed);
    const std::pair<vq::VQConfig, bool> fits[] = {
        {vq::quip4(), false}, {vq::aqlm3(), false}, {vq::gptvq2(), false},
        {vq::cq2(), true},    {vq::cq4(), true}};
    for (const auto &[cfg, kv] : fits) {
        auto t0 = Clock::now();
        in.hists[cfg.name] = fitHistogram(cfg, kv, rng);
        tr.span("vq.fit_histogram", "vq", t0, Clock::now());
    }

    using KR = compiler::KernelRequest;
    const auto O4 = engine::OptLevel::O4;
    for (const bench::ModelShapes &shapes :
         {bench::llama7b(), bench::llama65b()}) {
        for (const vq::VQConfig &cfg :
             {vq::quip4(), vq::aqlm3(), vq::gptvq2()}) {
            const auto *h = &in.hists.at(cfg.name);
            in.cases.push_back(KR::gemmOp(shapes.gemm(4096), cfg, O4, h));
            in.cases.push_back(KR::gemvOp(shapes.gemm(1), cfg, O4, h));
            in.cases.push_back(KR::gemvOp(shapes.gemm(16), cfg, O4, h));
        }
        for (const vq::VQConfig &cfg : {vq::cq2(), vq::cq4()}) {
            const auto *h = &in.hists.at(cfg.name);
            for (std::size_t batch : {1, 8})
                for (std::size_t seq : {1024, 4096, 16384})
                    in.cases.push_back(KR::attentionOp(
                        shapes.attention(batch, seq), cfg, O4, h));
        }
    }
    for (std::size_t c = 0; c < in.cases.size(); ++c)
        for (engine::OptLevel level : engine::kAllOptLevels)
            in.order.emplace_back(c, level);
    for (std::size_t i = in.order.size(); i > 1; --i)
        std::swap(in.order[i - 1], in.order[rng.uniformInt(i)]);
    return in;
}

/** Outcome of one compile pass, indexed like SweepInputs::order. */
struct SweepPass
{
    std::vector<kernels::KernelResult> estimates;
    std::vector<double> request_us; // compile() + source()
    std::vector<double> compile_us; // compile() alone
    std::vector<double> emit_us;    // source() alone
    std::vector<double> estimate_us; // traced pass only
    bool sources_ok = true;
    bool estimates_match = true;
};

bool
sameEstimate(const kernels::KernelResult &a, const kernels::KernelResult &b)
{
    const auto &x = a.latency, &y = b.latency;
    return x.total_us == y.total_us && x.dram_us == y.dram_us &&
           x.smem_us == y.smem_us && x.compute_us == y.compute_us &&
           x.latency_bound_us == y.latency_bound_us &&
           x.reduce_us == y.reduce_us && x.launch_us == y.launch_us &&
           std::memcmp(&a.counters, &b.counters, sizeof a.counters) == 0;
}

/** One cold pass: a fresh Engine with no disk tier compiles and emits
 *  every request, as every CLI run does. */
SweepPass
sweepPass(const SweepInputs &in, const Tracer &tr)
{
    const auto &spec = gpusim::rtx4090();
    compiler::Engine eng(spec);
    SweepPass p;
    for (std::size_t i = 0; i < in.order.size(); ++i) {
        const auto &[c, level] = in.order[i];
        const auto request = in.cases[c].atLevel(level);
        auto t0 = Clock::now();
        auto kernel = eng.compile(request);
        auto t1 = Clock::now();
        p.sources_ok = p.sources_ok && !kernel->source().empty();
        auto t2 = Clock::now();
        p.estimates.push_back(kernel->estimate());
        p.request_us.push_back(seconds(t0, t2) * 1e6);
        p.compile_us.push_back(seconds(t0, t1) * 1e6);
        p.emit_us.push_back(seconds(t1, t2) * 1e6);
        if (tr.rec == nullptr)
            continue;
        const std::vector<obs::TraceArg> req = {
            {"req", static_cast<double>(i)}};
        tr.span("compiler.compile", "compiler", t0, t1, req);
        tr.span("codegen.emit", "codegen", t1, t2, req);
        // Re-run the artifact's estimator on its plan, timed on its own:
        // the cost model's share of a compile, checked bit-exact.
        auto t3 = Clock::now();
        auto again =
            request.kind == engine::OpKind::AttentionDecode
                ? kernels::estimateVqAttentionKernel(spec, kernel->plan(),
                                                     request.histogram)
                : kernels::estimateVqWeightKernel(spec, kernel->plan(),
                                                  request.histogram);
        auto t4 = Clock::now();
        tr.span("kernels.estimate", "kernels", t3, t4, req);
        p.estimate_us.push_back(seconds(t3, t4) * 1e6);
        p.estimates_match =
            p.estimates_match && sameEstimate(again, kernel->estimate());
    }
    return p;
}

bool
sameModeled(const SweepPass &a, const SweepPass &b)
{
    return std::equal(a.estimates.begin(), a.estimates.end(),
                      b.estimates.begin(), b.estimates.end(), sameEstimate);
}

/** Modeled metrics of the best O1–O4 kernel per case (Fig. 13). */
void
sweepModeled(const SweepInputs &in, const SweepPass &p, Result &res)
{
    const std::size_t n = in.cases.size();
    std::vector<const kernels::KernelResult *> best(n, nullptr), gc(n);
    std::vector<engine::OptLevel> best_level(n);
    for (std::size_t i = 0; i < in.order.size(); ++i) {
        const auto &[c, level] = in.order[i];
        const auto *k = &p.estimates[i];
        if (level == engine::OptLevel::GC)
            gc[c] = k;
        if (level < engine::OptLevel::O1)
            continue;
        // Ties go to the lower level, as Engine::compileBest does.
        if (best[c] == nullptr || k->us() < best[c]->us() ||
            (k->us() == best[c]->us() && level < best_level[c])) {
            best[c] = k;
            best_level[c] = level;
        }
    }
    double log_sum = 0, sum_us = 0, red = 0;
    gpusim::LatencyBreakdown terms;
    gpusim::KernelCounters traffic;
    for (std::size_t c = 0; c < n; ++c) {
        const auto &b = *best[c];
        log_sum += std::log(b.us());
        sum_us += b.us();
        red += 1.0 - b.us() / gc[c]->us();
        terms.dram_us += b.latency.dram_us;
        terms.smem_us += b.latency.smem_us;
        terms.compute_us += b.latency.compute_us;
        terms.latency_bound_us += b.latency.latency_bound_us;
        terms.reduce_us += b.latency.reduce_us;
        terms.launch_us += b.latency.launch_us;
        traffic += b.counters;
    }
    const double cases = static_cast<double>(n);
    res.e2e["modeled_step_us"] = sum_us / cases;
    res.layer["kernels.kernel_us_geomean"] = std::exp(log_sum / cases);
    res.layer["engine.gc_reduction_mean"] = red / cases;
    res.layer["gpusim.dram_us"] = terms.dram_us;
    res.layer["gpusim.smem_us"] = terms.smem_us;
    res.layer["gpusim.compute_us"] = terms.compute_us;
    res.layer["gpusim.latency_bound_us"] = terms.latency_bound_us;
    res.layer["gpusim.reduce_us"] = terms.reduce_us;
    res.layer["gpusim.launch_us"] = terms.launch_us;
    res.layer["gpusim.dram_read_mb"] =
        static_cast<double>(traffic.dram_read_bytes) / 1e6;
    res.layer["gpusim.smem_conflict_ratio"] = traffic.conflictMultiplier();
    res.layer["gpusim.shuffle_ops"] =
        static_cast<double>(traffic.shuffle_ops);
}

Result
runCompileSweep(const Args &args, const Tracer &tr)
{
    Result res;
    SweepInputs in = sweepSetup(args.seed, kUntraced);
    const SweepPass ref = sweepPass(in, kUntraced);
    sweepModeled(in, ref, res);

    std::vector<double> request_us;
    timedReps(args.seconds, res, [&] {
        auto t0 = Clock::now();
        in = sweepSetup(args.seed, kUntraced);
        auto t1 = Clock::now();
        SweepPass p = sweepPass(in, kUntraced);
        auto t2 = Clock::now();
        res.gate("sources_emitted", p.sources_ok);
        res.gate("latencies_identical_across_passes", sameModeled(p, ref));
        res.attempted += p.request_us.size();
        request_us.insert(request_us.end(), p.request_us.begin(),
                          p.request_us.end());
        return RepTime{seconds(t0, t1), seconds(t1, t2)};
    });
    res.layer["compiler.compile_us_p50"] = pct(request_us, 0.50);
    res.layer["compiler.compile_us_p99"] = pct(request_us, 0.99);
    res.layer["compiler.misses"] = static_cast<double>(in.order.size());
    if (tr.rec == nullptr)
        return res;

    auto t0 = Clock::now();
    in = sweepSetup(args.seed, tr);
    auto t1 = Clock::now();
    SweepPass p = sweepPass(in, tr);
    auto t2 = Clock::now();
    res.gate("estimator_rerun_bit_identical", p.estimates_match);
    res.gate("latencies_identical_across_passes", sameModeled(p, ref));
    double estimate_s = 0, compile_s = 0;
    std::vector<double> plan_us;
    for (std::size_t i = 0; i < p.estimate_us.size(); ++i) {
        estimate_s += p.estimate_us[i] / 1e6;
        compile_s += p.compile_us[i] / 1e6;
        plan_us.push_back(p.compile_us[i] - p.estimate_us[i]);
    }
    res.layer["vq.histogram_fit_s"] = seconds(t0, t1);
    res.layer["kernels.estimate_us_p50"] = pct(p.estimate_us, 0.5);
    res.layer["kernels.estimate_share"] = estimate_s / compile_s;
    res.layer["engine.plan_us_p50"] = pct(plan_us, 0.5);
    res.layer["codegen.emit_us_p50"] = pct(p.emit_us, 0.5);
    // The estimator re-runs are the trace's own extra work, not
    // recording overhead.
    res.layer["bench.trace_overhead_frac"] =
        (seconds(t1, t2) - estimate_s) / res.e2e["wall_s"] - 1.0;
    return res;
}

// ========================================================= serving

/** TTFT/TBT deadlines every generated request carries. */
const serving::WorkloadConfig kSlo;

/** A rung meets SLO when nothing was rejected and the TTFT and TBT
 *  p99s are within their deadlines (>= 99% of requests on time). */
bool
meetsSlo(const serving::LatencyStats &ttft, const serving::LatencyStats &tbt,
         std::uint64_t rejected)
{
    return rejected == 0 && ttft.p99_us <= kSlo.ttft_deadline_us &&
           tbt.p99_us <= kSlo.tbt_deadline_us;
}

/** Nominal configuration of a single-replica serving workload. */
serving::SimulatorConfig
servingConfig(const std::string &workload, std::uint64_t seed)
{
    serving::SimulatorConfig cfg;
    cfg.workload.seed = seed;
    cfg.workload.qps = 4.0;
    if (workload == "serve_vq4") {
        cfg.scheme = llm::QuantScheme::VQ4;
        cfg.workload.duration_s = 300;
    } else {
        // qServe-style EWQ4 prices kernels in closed form: no compiles.
        // 1000-token system prompts are not block-aligned, so every hit
        // forks the shared tail block.  32 prefixes need ~2000 blocks;
        // 1920 forces LFU evictions without a growing backlog.
        cfg.scheme = llm::QuantScheme::EWQ4;
        cfg.workload.duration_s = 1200;
        cfg.workload.prefix_groups = 32;
        cfg.workload.prefix_tokens = 1000;
        cfg.prefix_cache = true;
        cfg.prefix_capacity_blocks = 1920;
        cfg.scheduler.chunk_tokens = 512;
    }
    return cfg;
}

/** Share of requests sent that were served and met the TTFT deadline,
 *  read from the caller-owned requests. */
double
sloAttainment(const std::vector<serving::Request> &trace)
{
    std::size_t met = 0;
    for (const serving::Request &r : trace)
        met += r.state != serving::RequestState::Rejected &&
               r.first_token_us >= 0 &&
               r.first_token_us - r.arrival_us <= r.ttft_deadline_us;
    return static_cast<double>(met) / static_cast<double>(trace.size());
}

/** Host time and plan-cache misses of every step of a driven run. */
struct StepLog
{
    std::vector<double> step_us;
    std::vector<std::uint64_t> misses;
};

/**
 * The stepping loop of ServingSimulator::run, copied so each library
 * call can be timed: deliver arrivals, fast-forward idle gaps, step
 * until every request finished or was rejected.
 */
serving::ServingReport
driveCore(serving::SimulatorCore &core, const compiler::Engine &eng,
          std::vector<serving::Request> &trace, StepLog &log,
          const Tracer &tr)
{
    std::size_t next_arrival = 0;
    std::uint64_t iter = 0;
    while (core.completedCount() + core.rejectedCount() < trace.size()) {
        while (next_arrival < trace.size() &&
               trace[next_arrival].arrival_us <= core.now()) {
            serving::Request *r = &trace[next_arrival++];
            auto t0 = Clock::now();
            core.submit(r);
            tr.span("serving.submit", "serving", t0, Clock::now(),
                    {{"req", static_cast<double>(r->id)}});
        }
        if (core.idle()) {
            if (next_arrival >= trace.size())
                break; // every remaining request was rejected
            core.setNow(trace[next_arrival].arrival_us);
            continue;
        }
        const std::uint64_t misses_before = eng.stats().misses;
        auto t0 = Clock::now();
        core.step();
        auto t1 = Clock::now();
        const std::uint64_t misses = eng.stats().misses - misses_before;
        log.step_us.push_back(seconds(t0, t1) * 1e6);
        log.misses.push_back(misses);
        tr.span("serving.step", "serving", t0, t1,
                {{"iter", static_cast<double>(iter++)},
                 {"plan_misses", static_cast<double>(misses)}});
    }
    auto t0 = Clock::now();
    serving::ServingReport report = core.finalize();
    tr.span("serving.finalize", "serving", t0, Clock::now());
    return report;
}

bool
breakdownCloses(const serving::ServingReport &r)
{
    double parts =
        r.prefill_us + r.decode_us + r.comm_us + r.codebook_upload_us;
    return std::abs(parts - r.busy_time_us) <= 1e-9 * r.busy_time_us;
}

void
servingReportMetrics(const serving::ServingReport &r, Result &res)
{
    auto &L = res.layer;
    const double iters = static_cast<double>(r.iterations);
    L["serving.iterations"] = iters;
    L["serving.decode_batch_mean"] =
        static_cast<double>(r.decode_tokens) / iters;
    L["serving.prefill_s"] = r.prefill_us / 1e6;
    L["serving.decode_s"] = r.decode_us / 1e6;
    L["serving.codebook_upload_s"] = r.codebook_upload_us / 1e6;
    L["serving.utilization"] = r.utilization;
    L["serving.preemptions"] = static_cast<double>(r.preemptions);
    L["serving.kv_peak_frac"] = static_cast<double>(r.kv_peak_bytes) /
                                static_cast<double>(r.kv_capacity_bytes);
    L["serving.peak_running_seqs"] =
        static_cast<double>(r.peak_running_seqs);
    L["serving.codebook_hit_rate"] = r.codebook_hit_rate;
    L["llm.kv_dequant_s"] = r.kv_dequant_us / 1e6;
    L["serving.prefix_hit_rate"] = r.prefix_hit_rate;
    L["serving.prefix_matched_tokens"] =
        static_cast<double>(r.prefix_matched_tokens);
    L["serving.cow_forks"] = static_cast<double>(r.cow_forks);
    L["serving.prefix_evicted_blocks"] =
        static_cast<double>(r.prefix_evicted_blocks);
}

void
latencyMetrics(const serving::LatencyStats &ttft,
               const serving::LatencyStats &tbt, double tokens_per_s,
               Result &res)
{
    res.layer["serving.ttft_p50_ms"] = ttft.p50_us / 1e3;
    res.layer["serving.ttft_p99_ms"] = ttft.p99_us / 1e3;
    res.layer["serving.tbt_p50_ms"] = tbt.p50_us / 1e3;
    res.layer["serving.tbt_p99_ms"] = tbt.p99_us / 1e3;
    res.layer["serving.tokens_per_s"] = tokens_per_s;
}

Result
runServing(const Args &args, const Tracer &tr)
{
    Result res;
    const serving::SimulatorConfig cfg =
        servingConfig(args.workload, args.seed);

    // Untimed reference rep through the library's own stepping loop.
    std::vector<serving::Request> ref_trace =
        serving::generateWorkload(cfg.workload);
    const serving::ServingReport ref =
        serving::ServingSimulator(cfg).run(ref_trace);
    const std::string ref_json = ref.json();
    res.gate("busy_breakdown_closes", breakdownCloses(ref));
    res.e2e["modeled_step_us"] =
        ref.busy_time_us / static_cast<double>(ref.iterations);
    if (args.workload == "serve_ewq4_prefix") {
        res.gate("ewq4_zero_plan_lookups",
                 ref.plan_cache_hits + ref.plan_cache_misses == 0);
        res.gate("ewq4_cow_forks", ref.cow_forks > 0);
        res.gate("ewq4_prefix_evictions", ref.prefix_evicted_blocks > 0);
    }

    // One cold rep: the set-up is the workload, a fresh engine and a
    // stepping core; the pass is the stepped run.
    auto rep = [&](const Tracer &t, StepLog &log) {
        auto t0 = Clock::now();
        auto reqs = serving::generateWorkload(cfg.workload);
        auto t1 = Clock::now();
        t.span("serving.generate_workload", "serving", t0, t1);
        compiler::Engine eng(gpusim::rtx4090());
        serving::SimulatorConfig c = cfg;
        c.engine = &eng;
        serving::SimulatorCore core(c);
        auto t2 = Clock::now();
        serving::ServingReport report = driveCore(core, eng, reqs, log, t);
        auto t3 = Clock::now();
        res.gate("report_matches_reference", report.json() == ref_json);
        res.attempted += reqs.size();
        res.failed += report.rejected_requests;
        return RepTime{seconds(t0, t2), seconds(t2, t3)};
    };
    timedReps(args.seconds, res, [&] {
        StepLog log;
        return rep(kUntraced, log);
    });
    if (tr.rec == nullptr)
        return res;

    StepLog log;
    const double traced_s = rep(tr, log).wall_s;
    res.layer["bench.trace_overhead_frac"] =
        traced_s / res.e2e["wall_s"] - 1.0;
    std::vector<double> plain_steps;
    double compile_step_s = 0;
    std::uint64_t compile_steps = 0;
    for (std::size_t i = 0; i < log.step_us.size(); ++i) {
        if (log.misses[i] == 0) {
            plain_steps.push_back(log.step_us[i]);
            continue;
        }
        ++compile_steps;
        compile_step_s += log.step_us[i] / 1e6;
    }
    res.layer["serving.step_us_p50"] = pct(plain_steps, 0.50);
    res.layer["serving.step_us_p99"] = pct(plain_steps, 0.99);
    res.layer["serving.compile_steps"] = static_cast<double>(compile_steps);
    res.layer["serving.compile_step_s"] = compile_step_s;
    res.layer["serving.compile_step_share"] = compile_step_s / traced_s;
    res.layer["compiler.misses"] =
        static_cast<double>(ref.plan_cache_misses);
    res.layer["compiler.hits"] = static_cast<double>(ref.plan_cache_hits);
    res.layer["compiler.hit_rate"] = ref.planCacheHitRate();
    servingReportMetrics(ref, res);
    latencyMetrics(ref.ttft, ref.tbt, ref.tokens_per_sec, res);
    res.layer["serving.slo_attainment"] = sloAttainment(ref_trace);

    // Max-QPS ladder on one warm shared engine (modeled output does not
    // depend on cache state).
    compiler::Engine warm(gpusim::rtx4090());
    auto t2 = Clock::now();
    res.layer["serving.max_qps_slo"] =
        climbLadder(cfg.workload.qps, [&](std::vector<double> rates) {
            std::vector<serving::SimulatorConfig> rungs;
            for (double qps : rates) {
                serving::SimulatorConfig c = cfg;
                c.workload.qps = qps;
                c.engine = &warm;
                rungs.push_back(c);
            }
            std::vector<bool> pass;
            for (const auto &r : serving::ServingSimulator::runMany(rungs))
                pass.push_back(meetsSlo(r.ttft, r.tbt, r.rejected_requests));
            return pass;
        });
    tr.span("serving.run_many", "serving", t2, Clock::now());
    return res;
}

// =========================================================== fleet

/** 2 prefill + 2 decode VQ4 replicas behind least-loaded routing,
 *  bursty multi-tenant arrivals, prefix caching and chunked prefill;
 *  every replica compiles through its own private engine. */
fleet::FleetConfig
fleetConfig(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.router = fleet::RouterPolicy::LeastLoaded;
    cfg.workload.seed = seed;
    cfg.workload.qps = 6.0;
    cfg.workload.duration_s = 200;
    cfg.workload.arrival = serving::ArrivalPattern::Bursty;
    cfg.workload.prefix_groups = 8;
    cfg.workload.prefix_tokens = 1000;
    for (int i = 0; i < 4; ++i) {
        fleet::ReplicaConfig rep;
        rep.sim.scheme = llm::QuantScheme::VQ4;
        rep.sim.prefix_cache = true;
        rep.sim.scheduler.chunk_tokens = 512;
        rep.role = i < 2 ? fleet::ReplicaRole::Prefill
                         : fleet::ReplicaRole::Decode;
        cfg.replicas.push_back(rep);
    }
    return cfg;
}

Result
runFleet(const Args &args, const Tracer &tr)
{
    Result res;
    const fleet::FleetConfig cfg = fleetConfig(args.seed);

    std::vector<serving::Request> ref_trace =
        serving::generateWorkload(cfg.workload);
    const fleet::FleetReport ref = fleet::FleetSimulator(cfg).run(ref_trace);
    const std::string ref_json = ref.json();
    double busy_us = 0, iterations = 0;
    std::uint64_t plan_misses = 0;
    for (const auto &replica : ref.replicas) {
        const serving::ServingReport &r = replica.report;
        busy_us += r.busy_time_us;
        iterations += static_cast<double>(r.iterations);
        plan_misses += r.plan_cache_misses;
        res.gate("busy_breakdown_closes", breakdownCloses(r));
    }
    res.e2e["modeled_step_us"] = busy_us / iterations;

    // One cold rep: the set-up is the workload and the fleet (each
    // replica with a private engine); the pass is the fleet run.
    auto rep = [&](const Tracer &t) {
        auto t0 = Clock::now();
        auto reqs = serving::generateWorkload(cfg.workload);
        auto t1 = Clock::now();
        t.span("serving.generate_workload", "serving", t0, t1);
        fleet::FleetSimulator sim(cfg);
        auto t2 = Clock::now();
        fleet::FleetReport report = sim.run(reqs);
        auto t3 = Clock::now();
        t.span("fleet.run", "fleet", t2, t3);
        res.gate("fleet_report_identical_across_reps",
                 report.json() == ref_json);
        res.attempted += reqs.size();
        res.failed += report.rejected_requests;
        return RepTime{seconds(t0, t2), seconds(t2, t3)};
    };
    timedReps(args.seconds, res, [&] { return rep(kUntraced); });
    if (tr.rec == nullptr)
        return res;

    const double traced_s = rep(tr).wall_s;
    res.layer["bench.trace_overhead_frac"] =
        traced_s / res.e2e["wall_s"] - 1.0;
    res.layer["fleet.handoffs"] = static_cast<double>(ref.handoffs);
    res.layer["fleet.kv_transfer_gb"] =
        static_cast<double>(ref.kv_transfer_bytes) / 1e9;
    res.layer["fleet.kv_transfer_s"] = ref.kv_transfer_us / 1e6;
    res.layer["fleet.handoff_rejects"] =
        static_cast<double>(ref.handoff_rejects);
    res.layer["fleet.util_imbalance"] = ref.util_imbalance;
    res.layer["compiler.misses"] = static_cast<double>(plan_misses);
    latencyMetrics(ref.ttft, ref.tbt, ref.fleet_tokens_per_sec, res);

    // Max-QPS ladder: one fleet per rung, rungs concurrent, every
    // replica pricing through one warm shared engine.
    compiler::Engine warm(gpusim::rtx4090());
    auto t1 = Clock::now();
    res.layer["serving.max_qps_slo"] =
        climbLadder(cfg.workload.qps, [&](std::vector<double> rates) {
            std::vector<char> pass(rates.size());
            par::parallelFor(rates.size(), 1, [&](const par::ChunkRange &c) {
                for (std::size_t i = c.begin; i < c.end; ++i) {
                    fleet::FleetConfig fc = cfg;
                    fc.workload.qps = rates[i];
                    for (auto &replica : fc.replicas)
                        replica.sim.engine = &warm;
                    const auto r = fleet::FleetSimulator(fc).run();
                    pass[i] = meetsSlo(r.ttft, r.tbt, r.rejected_requests);
                }
            });
            return std::vector<bool>(pass.begin(), pass.end());
        });
    tr.span("fleet.ladder", "fleet", t1, Clock::now());
    return res;
}

// ============================================================ main

void
printJson(const Args &args, const Result &res)
{
    auto object = [](const auto &m, auto fmt) {
        std::string s;
        for (const auto &[k, v] : m)
            s += (s.empty() ? "\"" : ",\"") + k + "\":" + fmt(v);
        return "{" + s + "}";
    };
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    auto boolean = [](bool b) { return std::string(b ? "true" : "false"); };
    bool correct = !res.gates.empty();
    for (const auto &[name, ok] : res.gates)
        correct = correct && ok;
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
                "\"attempted\":%llu,\"failed\":%llu,\"gates\":%s,"
                "\"e2e\":%s,\"per_layer\":%s}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                object(res.gates, boolean).c_str(),
                object(res.e2e, num).c_str(),
                object(res.layer, num).c_str());
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "vqllm_benchmark: %s\nusage: vqllm_benchmark --workload "
                 "compile_sweep|serve_vq4|serve_ewq4_prefix|fleet_disagg"
                 " [--seed N] [--seconds S] [--trace FILE]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::strtoull(value.c_str(), &end, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(value.c_str(), &end);
        else if (flag == "--trace")
            a.trace_path = value;
        else
            usage("unknown flag " + flag);
        if (end != nullptr && (value.empty() || *end != '\0'))
            usage("bad value for " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    obs::TraceRecorder recorder;
    Tracer tr;
    if (!args.trace_path.empty()) {
        tr.rec = &recorder;
        recorder.nameTrack(0, "benchmark " + args.workload);
    }

    Result res;
    if (args.workload == "compile_sweep")
        res = runCompileSweep(args, tr);
    else if (args.workload == "serve_vq4" ||
             args.workload == "serve_ewq4_prefix")
        res = runServing(args, tr);
    else if (args.workload == "fleet_disagg")
        res = runFleet(args, tr);
    else
        usage("unknown workload " + args.workload);

    if (tr.rec != nullptr) {
        std::ofstream out(args.trace_path);
        recorder.writeChromeJson(out);
        if (!out) {
            std::fprintf(stderr, "vqllm_benchmark: cannot write %s\n",
                         args.trace_path.c_str());
            return 1;
        }
    }
    printJson(args, res);
    return 0;
}
