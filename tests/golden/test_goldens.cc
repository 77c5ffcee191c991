/**
 * @file
 * Golden reports: a small matrix of serving and fleet configurations
 * (weight scheme x KV scheme x TP degree x prefix cache x aggregated /
 * disaggregated) whose report json() and Chrome-trace bytes are pinned
 * by committed files in this directory.  Any change to modeled
 * numbers, scheduling decisions, KV accounting or trace events shows
 * up here as a byte difference.
 *
 * Each `<name>.golden` file holds one line:
 *   {"config":"<name>","trace_fnv1a64":"<hex>","report":<json()>}
 * where the digest is 64-bit FNV-1a over the full trace bytes.
 *
 * `llm_analytic.golden` pins the analytic models the same way: the
 * end-to-end estimate (paper Fig. 17) and the tensor-parallel decode
 * estimate, one `<key> <%.17g value>` line each.  Those compare at
 * 1e-12 relative, so reordering a sum passes and any modeling change
 * fails.
 *
 * Rewrite the files from the current build with
 * `scripts/bless_goldens.sh` (it runs this test with
 * VQLLM_BLESS_GOLDENS=1) and review the diff before committing.  A
 * bless rewrites `llm_analytic.golden` only when it is missing, its
 * keys changed or a value moved past the tolerance, so blessing a
 * clean tree changes no byte.
 *
 * `codegen_sources.golden` pins the compiler's emitted CUDA: for each
 * kernel of the Fig. 13 matrix at every optimization level, plus a GQA
 * attention shape and a CQ-4 weight GeMM, once without and once with
 * an access histogram, one line
 *   <symbol> <source bytes> <FNV-1a of source> <FNV-1a of summary()>
 * so any change to an emitted byte, a symbol or a plan shows up here.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compiler/engine.h"
#include "fleet/fleet.h"
#include "llm/tensor_parallel.h"
#include "obs/trace.h"
#include "serving/simulator.h"

#ifndef VQLLM_GOLDEN_DIR
#error "VQLLM_GOLDEN_DIR must name the directory of the golden files"
#endif

namespace vqllm {
namespace {

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One run's pinned outputs plus the counters the config exists to
 *  exercise (a golden that stops reaching its path is a bad golden). */
struct GoldenRun
{
    std::string report_json;
    std::string trace;
    std::uint64_t preemptions = 0;
    std::uint64_t evicted_blocks = 0;
};

struct GoldenCase
{
    std::string name;
    std::function<GoldenRun()> run;
    bool expect_preemptions = false;
    bool expect_evictions = false;
};

serving::SimulatorConfig
baseSim(llm::QuantScheme scheme, double qps, double duration_s)
{
    serving::SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.spec = &gpusim::rtx4090();
    cfg.model = &llm::llama7b();
    cfg.workload.qps = qps;
    cfg.workload.duration_s = duration_s;
    cfg.workload.seed = 42;
    return cfg;
}

GoldenRun
runServing(serving::SimulatorConfig cfg)
{
    obs::TraceRecorder rec;
    cfg.trace = &rec;
    serving::ServingReport report = serving::ServingSimulator(cfg).run();
    std::ostringstream os;
    rec.writeChromeJson(os);
    GoldenRun out;
    out.report_json = report.json();
    out.trace = os.str();
    out.preemptions = report.preemptions;
    out.evicted_blocks = report.prefix_evicted_blocks;
    return out;
}

GoldenRun
runDisaggregatedFleet(const serving::SimulatorConfig &sim, double qps,
                      double duration_s)
{
    fleet::FleetConfig cfg;
    cfg.router = fleet::RouterPolicy::SloAware;
    cfg.workload = sim.workload;
    cfg.workload.qps = qps;
    cfg.workload.duration_s = duration_s;
    cfg.trace = true;
    cfg.replicas.resize(2);
    cfg.replicas[0].sim = sim;
    cfg.replicas[0].role = fleet::ReplicaRole::Prefill;
    cfg.replicas[1].sim = sim;
    cfg.replicas[1].role = fleet::ReplicaRole::Decode;
    fleet::FleetSimulator fsim(cfg);
    fleet::FleetReport report = fsim.run();
    std::ostringstream os;
    fsim.writeChromeTrace(os);
    GoldenRun out;
    out.report_json = report.json();
    out.trace = os.str();
    for (const auto &rep : report.replicas) {
        out.preemptions += rep.report.preemptions;
        out.evicted_blocks += rep.report.prefix_evicted_blocks;
    }
    return out;
}

std::vector<GoldenCase>
goldenCases()
{
    using llm::KvScheme;
    using llm::QuantScheme;
    std::vector<GoldenCase> cases;

    cases.push_back({"vq4_tp1", [] {
                         return runServing(
                             baseSim(QuantScheme::VQ4, 4, 8));
                     }});
    cases.push_back({"fp16_tp2_hbm8p5_preempt",
                     [] {
                         auto cfg = baseSim(QuantScheme::FP16, 6, 10);
                         cfg.tp.degree = 2;
                         cfg.hbm_gb = 8.5;
                         return runServing(cfg);
                     },
                     true});
    // The same KV pressure under the non-FCFS orders: priority and EDF
    // admission, and victims taken in the reverse of it.
    cases.push_back({"fp16_tp2_hbm8p5_priority4_preempt",
                     [] {
                         auto cfg = baseSim(QuantScheme::FP16, 6, 10);
                         cfg.tp.degree = 2;
                         cfg.hbm_gb = 8.5;
                         cfg.workload.priority_levels = 4;
                         cfg.scheduler.policy =
                             serving::PolicyKind::Priority;
                         return runServing(cfg);
                     },
                     true});
    cases.push_back({"fp16_tp2_hbm8p5_edf_chunk256_preempt",
                     [] {
                         auto cfg = baseSim(QuantScheme::FP16, 6, 10);
                         cfg.tp.degree = 2;
                         cfg.hbm_gb = 8.5;
                         cfg.scheduler.policy = serving::PolicyKind::EDF;
                         cfg.scheduler.chunk_tokens = 256;
                         return runServing(cfg);
                     },
                     true});
    cases.push_back({"vq2_kvvq4_tp2_prefix_hbm3_pressure",
                     [] {
                         auto cfg = baseSim(QuantScheme::VQ2, 4, 12);
                         cfg.kv_scheme = KvScheme::VQ4;
                         cfg.tp.degree = 2;
                         cfg.hbm_gb = 3;
                         cfg.workload.prefix_groups = 32;
                         cfg.workload.prefix_tokens = 1000;
                         cfg.prefix_cache = true;
                         cfg.scheduler.chunk_tokens = 512;
                         return runServing(cfg);
                     },
                     true, true});
    cases.push_back({"ewq4_prefix32_hbm12_evict",
                     [] {
                         auto cfg = baseSim(QuantScheme::EWQ4, 4, 20);
                         cfg.hbm_gb = 12;
                         cfg.workload.prefix_groups = 32;
                         cfg.workload.prefix_tokens = 1000;
                         cfg.prefix_cache = true;
                         cfg.scheduler.chunk_tokens = 512;
                         return runServing(cfg);
                     },
                     false, true});
    cases.push_back({"vq2_tp4_prefix", [] {
                         auto cfg = baseSim(QuantScheme::VQ2, 4, 6);
                         cfg.tp.degree = 4;
                         cfg.tp.link_bw_gbps = 300;
                         cfg.workload.prefix_groups = 4;
                         cfg.workload.prefix_tokens = 1536;
                         cfg.prefix_cache = true;
                         cfg.scheduler.chunk_tokens = 512;
                         return runServing(cfg);
                     }});
    cases.push_back({"ewq4_kvint4_tp2", [] {
                         auto cfg = baseSim(QuantScheme::EWQ4, 6, 8);
                         cfg.kv_scheme = KvScheme::INT4;
                         cfg.tp.degree = 2;
                         return runServing(cfg);
                     }});
    cases.push_back({"fp16_kvvq2_chunked", [] {
                         auto cfg = baseSim(QuantScheme::FP16, 4, 8);
                         cfg.kv_scheme = KvScheme::VQ2;
                         cfg.workload.prompt_len_median = 2048;
                         cfg.scheduler.chunk_tokens = 512;
                         return runServing(cfg);
                     }});
    cases.push_back({"llama70b_vq4_tp8_hbm12", [] {
                         auto cfg = baseSim(QuantScheme::VQ4, 2, 6);
                         cfg.model = &llm::llama70b();
                         cfg.tp.degree = 8;
                         cfg.hbm_gb = 12;
                         return runServing(cfg);
                     }});
    cases.push_back({"fleet_disagg_fp16_kvvq4", [] {
                         auto sim = baseSim(QuantScheme::FP16, 0, 0);
                         sim.kv_scheme = KvScheme::VQ4;
                         sim.scheduler.chunk_tokens = 512;
                         return runDisaggregatedFleet(sim, 6, 6);
                     }});
    cases.push_back({"fleet_disagg_ewq4_kvint4_tp2_prefix", [] {
                         auto sim = baseSim(QuantScheme::EWQ4, 0, 0);
                         sim.kv_scheme = KvScheme::INT4;
                         sim.tp.degree = 2;
                         sim.prefix_cache = true;
                         sim.scheduler.chunk_tokens = 512;
                         sim.workload.prefix_groups = 4;
                         sim.workload.prefix_tokens = 1024;
                         return runDisaggregatedFleet(sim, 6, 6);
                     }});
    return cases;
}

std::string
goldenLine(const std::string &name, const GoldenRun &run)
{
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(run.trace)));
    return "{\"config\":\"" + name + "\",\"trace_fnv1a64\":\"" + digest +
           "\",\"report\":" + run.report_json + "}\n";
}

std::string
goldenPath(const std::string &name)
{
    return std::string(VQLLM_GOLDEN_DIR) + "/" + name + ".golden";
}

bool
blessing()
{
    const char *env = std::getenv("VQLLM_BLESS_GOLDENS");
    return env != nullptr && std::string(env) == "1";
}

class Golden : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(Golden, ReportAndTraceMatchCommittedFile)
{
    const GoldenCase &c = GetParam();
    const GoldenRun run = c.run();
    if (c.expect_preemptions) {
        EXPECT_GT(run.preemptions, 0u)
            << c.name << " no longer preempts";
    }
    if (c.expect_evictions) {
        EXPECT_GT(run.evicted_blocks, 0u)
            << c.name << " no longer evicts prefix blocks";
    }
    const std::string actual = goldenLine(c.name, run);
    const std::string path = goldenPath(c.name);

    if (blessing()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << path
                    << " (run scripts/bless_goldens.sh)";
    std::ostringstream expected;
    expected << is.rdbuf();
    const std::string want = expected.str();
    if (want == actual)
        return;
    std::size_t at = 0;
    while (at < want.size() && at < actual.size() &&
           want[at] == actual[at])
        ++at;
    const std::size_t from = at < 60 ? 0 : at - 60;
    ADD_FAILURE() << c.name << " differs from " << path
                  << " at byte " << at << "\n  golden: ..."
                  << want.substr(from, 140) << "\n  actual: ..."
                  << actual.substr(from, 140);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Golden, testing::ValuesIn(goldenCases()),
    [](const testing::TestParamInfo<GoldenCase> &info) {
        return info.param.name;
    });

/** One pinned number of the analytic models. */
struct AnalyticValue
{
    std::string key;
    double value = 0;
};

/** estimateE2E for every scheme on both GPUs and two model sizes, and
 *  estimateTensorParallel of Llama-65B over the degree sweep and both
 *  interconnects of bench_tensor_parallel. */
std::vector<AnalyticValue>
analyticValues()
{
    using llm::QuantScheme;
    std::vector<AnalyticValue> out;
    auto add = [&out](const std::string &key, double value) {
        out.push_back({key, value});
    };
    const std::pair<const char *, QuantScheme> schemes[] = {
        {"fp16", QuantScheme::FP16},
        {"ewq4", QuantScheme::EWQ4},
        {"vq4", QuantScheme::VQ4},
        {"vq2", QuantScheme::VQ2}};
    const std::pair<const char *, const gpusim::GpuSpec *> specs[] = {
        {"rtx4090", &gpusim::rtx4090()}, {"a40", &gpusim::teslaA40()}};
    const std::pair<const char *, const llm::LlamaConfig *> models[] = {
        {"7b", &llm::llama7b()}, {"65b", &llm::llama65b()}};
    for (auto [spec_name, spec] : specs) {
        for (auto [model_name, model] : models) {
            for (auto [scheme_name, scheme] : schemes) {
                const std::string p = std::string("e2e.") + spec_name +
                                      "." + model_name + "." +
                                      scheme_name + ".";
                const llm::E2EResult r =
                    llm::estimateE2E(*spec, *model, scheme);
                add(p + "prefill_us", r.prefill_us);
                add(p + "decode_us", r.decode_us);
                add(p + "elementwise_fraction", r.elementwise_fraction);
                add(p + "weight_bytes",
                    static_cast<double>(r.weight_bytes));
                add(p + "kv_bytes", static_cast<double>(r.kv_bytes));
            }
        }
    }
    const std::tuple<const char *, double, double> links[] = {
        {"nvlink", 300.0, 8.0}, {"pcie", 25.0, 15.0}};
    for (auto [link_name, bw, lat] : links) {
        for (int degree : {1, 2, 4, 8}) {
            for (auto [scheme_name, scheme] :
                 {schemes[0], schemes[2]}) {
                const std::string p = std::string("tp.rtx4090.65b.") +
                                      link_name + ".tp" +
                                      std::to_string(degree) + "." +
                                      scheme_name + ".";
                llm::TpConfig tp;
                tp.degree = degree;
                tp.link_bw_gbps = bw;
                tp.collective_latency_us = lat;
                const llm::TpResult r = llm::estimateTensorParallel(
                    gpusim::rtx4090(), llm::llama65b(), scheme, tp);
                add(p + "decode_us", r.decode_us);
                add(p + "comm_fraction", r.comm_fraction);
                add(p + "comm_us_per_step", r.comm_us_per_step);
                add(p + "memory_per_gpu",
                    static_cast<double>(r.memory_per_gpu));
            }
        }
    }
    return out;
}

/** Relative tolerance of the analytic golden values. */
constexpr double kAnalyticRelTol = 1e-12;

TEST(AnalyticGolden, E2EAndTensorParallelMatchCommittedFile)
{
    const std::vector<AnalyticValue> actual = analyticValues();
    const std::string path = goldenPath("llm_analytic");
    std::ifstream is(path, std::ios::binary);
    const bool found = is.is_open();
    std::vector<AnalyticValue> want;
    AnalyticValue v;
    while (is >> v.key >> v.value)
        want.push_back(v);
    const bool parsed = found && is.eof();
    is.close();

    if (blessing()) {
        // Keep the committed bytes while every value is inside its
        // tolerance: re-printing a value an ulp away would churn the
        // file on every bless.
        bool same = parsed && want.size() == actual.size();
        for (std::size_t i = 0; same && i < want.size(); ++i)
            same = actual[i].key == want[i].key &&
                   std::fabs(actual[i].value - want[i].value) <=
                       kAnalyticRelTol * std::fabs(want[i].value);
        if (same)
            return;
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        for (const AnalyticValue &a : actual)
            os << a.key << " " << serving::jsonDouble(a.value) << "\n";
        return;
    }
    ASSERT_TRUE(found) << "missing golden " << path
                       << " (run scripts/bless_goldens.sh)";
    ASSERT_TRUE(parsed) << path << " does not parse after line "
                        << want.size();
    ASSERT_EQ(want.size(), actual.size()) << path;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(actual[i].key, want[i].key) << path << " line " << i + 1;
        EXPECT_NEAR(actual[i].value, want[i].value,
                    kAnalyticRelTol * std::fabs(want[i].value))
            << actual[i].key;
    }
}

/** One request per Fig. 13 kernel (QuiP#-4/AQLM-3/GPTVQ-2 weights as
 *  GeMM at m=4096 and GeMV at m=1 and 16, CQ-2/CQ-4 attention at batch
 *  1 and 8 over 1k/4k/16k tokens, for Llama-7B and -65B), plus a GQA
 *  attention shape and CQ-4 as the weights of an m=64 GeMM; all at O4,
 *  each with its config's histogram from `hists` when given. */
std::vector<compiler::KernelRequest>
codegenRequests(const std::map<std::string, vq::AccessHistogram> *hists)
{
    using KR = compiler::KernelRequest;
    auto hist = [hists](const vq::VQConfig &cfg) {
        return hists != nullptr ? &hists->at(cfg.name) : nullptr;
    };
    const auto O4 = engine::OptLevel::O4;
    struct Model
    {
        std::size_t hidden, heads;
    };
    std::vector<KR> out;
    for (const Model m : {Model{4096, 32}, Model{8192, 64}}) {
        for (const vq::VQConfig &cfg :
             {vq::quip4(), vq::aqlm3(), vq::gptvq2()}) {
            for (std::size_t rows : {4096, 1, 16}) {
                const engine::GemmShape shape{rows, m.hidden, m.hidden};
                out.push_back(rows > 16
                                  ? KR::gemmOp(shape, cfg, O4, hist(cfg))
                                  : KR::gemvOp(shape, cfg, O4, hist(cfg)));
            }
        }
        for (const vq::VQConfig &cfg : {vq::cq2(), vq::cq4()})
            for (std::size_t batch : {1, 8})
                for (std::size_t seq : {1024, 4096, 16384})
                    out.push_back(KR::attentionOp(
                        {batch, m.heads, seq, 128}, cfg, O4, hist(cfg)));
    }
    out.push_back(KR::attentionOp({4, 64, 4096, 128, 8}, vq::cq2(), O4,
                                  hist(vq::cq2())));
    out.push_back(KR::gemmOp({64, 4096, 4096}, vq::cq4(), O4,
                             hist(vq::cq4())));
    return out;
}

/** A fixed skewed histogram over the config's stored entries: Zipf
 *  counts by rank, ranks scattered over the indices by a stride
 *  coprime to the (power-of-two) entry count. */
vq::AccessHistogram
fixedHistogram(const vq::VQConfig &cfg)
{
    const std::size_t n = cfg.storedEntries();
    std::vector<std::uint64_t> counts(n);
    for (std::size_t i = 0; i < n; ++i)
        counts[i] = 1 + 1000000 / (1 + (i * 7919) % n);
    return vq::AccessHistogram(std::move(counts));
}

/** Every line of `codegen_sources.golden`, from one fresh engine. */
std::string
codegenLines()
{
    std::map<std::string, vq::AccessHistogram> hists;
    for (const vq::VQConfig &cfg : vq::paperConfigs())
        hists.emplace(cfg.name, fixedHistogram(cfg));
    std::vector<compiler::KernelRequest> requests = codegenRequests(nullptr);
    for (const auto &r : codegenRequests(&hists))
        requests.push_back(r);

    compiler::Engine engine(gpusim::rtx4090());
    std::string out;
    for (const auto &request : requests) {
        for (engine::OptLevel level : engine::kAllOptLevels) {
            const auto kernel = engine.compile(request.atLevel(level));
            const std::string &source = kernel->source();
            char line[256];
            std::snprintf(
                line, sizeof(line), "%s %zu %016llx %016llx\n",
                kernel->symbolName().c_str(), source.size(),
                static_cast<unsigned long long>(fnv1a64(source)),
                static_cast<unsigned long long>(
                    fnv1a64(kernel->plan().summary())));
            out += line;
        }
    }
    return out;
}

TEST(CodegenGolden, SourcesMatchCommittedFile)
{
    const std::string actual = codegenLines();
    const std::string path = goldenPath("codegen_sources");
    if (blessing()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << path
                    << " (run scripts/bless_goldens.sh)";
    std::istringstream got(actual);
    std::string want_line, got_line;
    for (int n = 1;; ++n) {
        const bool more_want = static_cast<bool>(std::getline(is, want_line));
        const bool more_got = static_cast<bool>(std::getline(got, got_line));
        if (!more_want && !more_got)
            break;
        ASSERT_EQ(got_line, want_line)
            << path << " line " << n << (more_want ? "" : " (extra)")
            << (more_got ? "" : " (missing)");
    }
}

} // namespace
} // namespace vqllm
