/**
 * @file
 * KV-scheme decoupling tests: selecting a KV storage scheme
 * independently of the weight scheme must (1) leave FP16-KV serving
 * reports identical to the default config's, (2) multiply block-pool
 * token capacity by the compression factor at equal pool bytes, (3)
 * stay deterministic across host thread counts and TP degrees, and
 * (4) compose with the cross-request prefix cache; the pricer's KV
 * codebook group holds one book per channel group.  The JSONL
 * workload-trace loader (`--trace-in`) is covered here too:
 * well-formed traces replay sorted with fresh ids and stamped
 * deadlines, malformed lines are hard errors, and seeded mutations of
 * a valid line load or fail cleanly.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "compiler/engine.h"
#include "llm/model_config.h"
#include "serving/kv_block_pool.h"
#include "serving/request.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

SimulatorConfig
baseConfig(llm::QuantScheme scheme)
{
    SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 4;
    return cfg;
}

/** A temp JSONL trace file that removes itself. */
class TraceFile
{
  public:
    explicit TraceFile(const std::string &content)
        : path_(std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "_trace.jsonl")
    {
        std::ofstream out(path_);
        out << content;
    }
    ~TraceFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---------------------------------------------------------------------
// KvScheme API

TEST(KvScheme, DefaultsFollowTheWeightScheme)
{
    EXPECT_EQ(llm::defaultKvScheme(llm::QuantScheme::FP16),
              llm::KvScheme::FP16);
    EXPECT_EQ(llm::defaultKvScheme(llm::QuantScheme::EWQ4),
              llm::KvScheme::INT4);
    EXPECT_EQ(llm::defaultKvScheme(llm::QuantScheme::VQ4),
              llm::KvScheme::VQ4);
    EXPECT_EQ(llm::defaultKvScheme(llm::QuantScheme::VQ2),
              llm::KvScheme::VQ2);
}

TEST(KvScheme, ScalesAndBytesPerToken)
{
    const auto &model = llm::llama7b();
    EXPECT_EQ(llm::kvSchemeScale(llm::KvScheme::FP16), 1.0);
    EXPECT_EQ(llm::kvSchemeBytesPerToken(model, llm::KvScheme::FP16),
              model.kvCacheBytesFp16(1, 1));
    for (auto kv : llm::kAllKvSchemes) {
        double scale = llm::kvSchemeScale(kv);
        EXPECT_GT(scale, 0.0);
        EXPECT_LE(scale, 1.0);
        EXPECT_EQ(llm::kvSchemeBytesPerToken(model, kv),
                  static_cast<std::uint64_t>(
                      static_cast<double>(model.kvCacheBytesFp16(1, 1)) *
                      scale));
    }
    // Compression ordering: VQ2 < VQ4 < INT4 < FP16.
    EXPECT_LT(llm::kvSchemeScale(llm::KvScheme::VQ2),
              llm::kvSchemeScale(llm::KvScheme::VQ4));
    EXPECT_LT(llm::kvSchemeScale(llm::KvScheme::VQ4),
              llm::kvSchemeScale(llm::KvScheme::INT4));
    EXPECT_LT(llm::kvSchemeScale(llm::KvScheme::INT4), 1.0);
    // VQ4 compresses at least 2x — the capacity headline the bench
    // sweep asserts end to end.
    EXPECT_LE(llm::kvSchemeScale(llm::KvScheme::VQ4), 0.5);
}

TEST(KvScheme, ParseRoundTripsTokens)
{
    for (auto kv : llm::kAllKvSchemes) {
        llm::KvScheme parsed;
        ASSERT_TRUE(llm::parseKvScheme(llm::kvSchemeToken(kv), &parsed))
            << llm::kvSchemeToken(kv);
        EXPECT_EQ(parsed, kv);
    }
    llm::KvScheme parsed;
    EXPECT_TRUE(llm::parseKvScheme("VQ4", &parsed)); // case-insensitive
    EXPECT_EQ(parsed, llm::KvScheme::VQ4);
    EXPECT_FALSE(llm::parseKvScheme("fp8", &parsed));
    EXPECT_FALSE(llm::parseKvScheme("", &parsed));
}

// ---------------------------------------------------------------------
// FP16-KV bit parity

TEST(KvSchemeParity, ExplicitFp16KvIsByteIdenticalToDefault)
{
    auto plain = baseConfig(llm::QuantScheme::FP16);
    auto explicit_cfg = plain;
    explicit_cfg.kv_scheme = llm::KvScheme::FP16;
    auto a = ServingSimulator(plain).run();
    auto b = ServingSimulator(explicit_cfg).run();
    EXPECT_EQ(a.json(), b.json());
    EXPECT_EQ(a.summary(), b.summary());
    // The JSON always carries the kv_scheme section; under FP16 KV it
    // holds the uncompressed values.  The summary shows it only for
    // compressed KV.
    EXPECT_NE(a.json().find(
                  "\"kv_scheme\":{\"scheme\":\"fp16\",\"bytes_per_token\":" +
                  std::to_string(llm::llama7b().kvCacheBytesFp16(1, 1)) +
                  ",\"capacity_multiplier\":1,\"dequant_us\":0,"),
              std::string::npos);
    EXPECT_EQ(a.summary().find("KV scheme"), std::string::npos);
    EXPECT_EQ(a.kv_scheme, "fp16");
    EXPECT_EQ(a.kv_bytes_per_token,
              llm::llama7b().kvCacheBytesFp16(1, 1));
    EXPECT_EQ(a.kv_capacity_multiplier, 1.0);
    EXPECT_EQ(a.kv_dequant_us, 0.0);
}

TEST(KvSchemeParity, ExplicitDefaultKvMatchesLegacyRunPerScheme)
{
    // Pinning each weight scheme's default KV scheme explicitly must
    // reproduce the legacy (implicit) run byte for byte — the report
    // JSON includes every pricing, pool and plan-cache statistic.
    for (auto ws : {llm::QuantScheme::EWQ4, llm::QuantScheme::VQ4}) {
        auto implicit_cfg = baseConfig(ws);
        auto explicit_cfg = implicit_cfg;
        explicit_cfg.kv_scheme = llm::defaultKvScheme(ws);
        auto a = ServingSimulator(implicit_cfg).run();
        auto b = ServingSimulator(explicit_cfg).run();
        EXPECT_EQ(a.json(), b.json()) << llm::quantSchemeName(ws);
    }
}

// ---------------------------------------------------------------------
// Pool capacity

TEST(KvSchemeCapacity, BlockPoolMultipliesTokensAtEqualBytes)
{
    const auto &model = llm::llama7b();
    KvBlockPoolConfig fp16_cfg;
    fp16_cfg.capacity_bytes = 8ull << 30;
    fp16_cfg.bytes_per_token =
        llm::kvSchemeBytesPerToken(model, llm::KvScheme::FP16);
    KvBlockPool fp16_pool(fp16_cfg);
    for (auto kv : {llm::KvScheme::VQ4, llm::KvScheme::VQ2}) {
        KvBlockPoolConfig cfg = fp16_cfg;
        cfg.bytes_per_token = llm::kvSchemeBytesPerToken(model, kv);
        KvBlockPool pool(cfg);
        double ratio = static_cast<double>(pool.totalBlocks()) /
                       static_cast<double>(fp16_pool.totalBlocks());
        double want = 1.0 / llm::kvSchemeScale(kv);
        EXPECT_GE(ratio, 2.0) << llm::kvSchemeName(kv);
        // Same bytes, smaller tokens: the block count tracks the
        // compression factor to block-granularity rounding.
        EXPECT_NEAR(ratio, want, want * 0.01) << llm::kvSchemeName(kv);
    }
}

TEST(KvSchemeCapacity, TpBlockTableKeepsTheMultiplier)
{
    // Under 2-way TP the one block table is sized by a device's half of
    // every token's KV; the compression multiplier survives the split.
    const auto &model = llm::llama7b();
    auto mkPool = [&](llm::KvScheme kv) {
        KvBlockPoolConfig cfg;
        cfg.capacity_bytes = 4ull << 30; // per device
        cfg.bytes_per_token = std::max<std::uint64_t>(
            llm::kvSchemeBytesPerToken(model, kv) / 2, 1); // 2-way TP
        return KvBlockPool(cfg);
    };
    double ratio =
        static_cast<double>(mkPool(llm::KvScheme::VQ4).totalBlocks()) /
        static_cast<double>(mkPool(llm::KvScheme::FP16).totalBlocks());
    EXPECT_GE(ratio, 2.0);
}

TEST(KvSchemeCapacity, CompressedKvRaisesPeakConcurrency)
{
    // The end-to-end capacity claim at simulator level: equal pool
    // bytes (FP16 weights in both cells), long contexts, saturating
    // arrivals — VQ4 KV must hold at least 2x the concurrently
    // running sequences of FP16 KV.
    auto mk = [](llm::KvScheme kv) {
        SimulatorConfig cfg;
        cfg.scheme = llm::QuantScheme::FP16;
        cfg.kv_scheme = kv;
        cfg.workload.qps = 8;
        cfg.workload.duration_s = 4;
        cfg.workload.prompt_len_median = 2048;
        cfg.workload.prompt_len_max = 6144;
        cfg.workload.gen_tokens_median = 256;
        cfg.scheduler.chunk_tokens = 512;
        return cfg;
    };
    auto fp16 = ServingSimulator(mk(llm::KvScheme::FP16)).run();
    auto vq4 = ServingSimulator(mk(llm::KvScheme::VQ4)).run();
    EXPECT_EQ(fp16.kv_capacity_bytes, vq4.kv_capacity_bytes);
    EXPECT_GT(fp16.peak_running_seqs, 0u);
    EXPECT_GE(vq4.peak_running_seqs, 2 * fp16.peak_running_seqs);
    EXPECT_GE(vq4.kv_capacity_multiplier, 2.0);
    EXPECT_EQ(vq4.kv_scheme, "vq4");
    // The compressed run's report carries the kv_scheme section.
    EXPECT_NE(vq4.json().find("\"kv_scheme\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Determinism and composition

TEST(KvSchemeDeterminism, VqKvReportsAreThreadCountInvariant)
{
    ThreadGuard guard;
    auto cfg = baseConfig(llm::QuantScheme::FP16);
    cfg.kv_scheme = llm::KvScheme::VQ2;
    par::setThreads(1);
    auto a = ServingSimulator(cfg).run();
    par::setThreads(8);
    auto b = ServingSimulator(cfg).run();
    auto c = ServingSimulator(cfg).run();
    EXPECT_EQ(a.json(), b.json());
    EXPECT_EQ(b.json(), c.json());
}

TEST(KvSchemeDeterminism, VqKvComposesWithTensorParallelism)
{
    ThreadGuard guard;
    auto cfg = baseConfig(llm::QuantScheme::VQ4);
    cfg.kv_scheme = llm::KvScheme::VQ4;
    cfg.tp.degree = 2;
    par::setThreads(1);
    auto a = ServingSimulator(cfg).run();
    par::setThreads(8);
    auto b = ServingSimulator(cfg).run();
    EXPECT_EQ(a.json(), b.json());
    EXPECT_EQ(a.tp_degree, 2u);
    ASSERT_EQ(a.shards.size(), 2u);
    EXPECT_GT(a.completed_requests, 0u);
    EXPECT_EQ(a.kv_scheme, "vq4");
    // TP devices split the compressed bytes/token across KV heads;
    // the aggregate multiplier is still the compression factor.
    EXPECT_GE(a.kv_capacity_multiplier, 2.0);
}

TEST(KvSchemeDeterminism, VqKvComposesWithPrefixCache)
{
    auto mk = [] {
        SimulatorConfig cfg;
        cfg.scheme = llm::QuantScheme::FP16;
        cfg.kv_scheme = llm::KvScheme::VQ2;
        cfg.prefix_cache = true;
        cfg.workload.qps = 6;
        cfg.workload.duration_s = 4;
        cfg.workload.prompt_len_median = 512;
        cfg.workload.prefix_groups = 2;
        cfg.workload.prefix_tokens = 1024;
        cfg.scheduler.chunk_tokens = 512;
        return cfg;
    };
    auto a = ServingSimulator(mk()).run();
    auto b = ServingSimulator(mk()).run();
    EXPECT_GT(a.completed_requests, 0u);
    EXPECT_GT(a.prefix_matched_tokens, 0u);
    EXPECT_GT(a.prefix_hit_rate, 0.0);
    EXPECT_EQ(a.json(), b.json());
}

// ---------------------------------------------------------------------
// JSONL workload-trace replay

TEST(WorkloadTrace, ReplaysSortedWithFreshIdsAndDeadlines)
{
    TraceFile file(
        "{\"arrival_us\": 2000, \"prompt_len\": 64, \"output_len\": 8}\n"
        "\n"
        "{\"arrival_us\": 500.5, \"prompt_len\": 128, "
        "\"output_len\": 16, \"group\": 3}\n"
        "  \n"
        "{\"arrival_us\": 500.5, \"prompt_len\": 32, \"output_len\": 4}\n");
    WorkloadConfig cfg;
    cfg.trace_path = file.path();
    cfg.ttft_deadline_us = 1e6;
    cfg.tbt_deadline_us = 2e5;
    auto trace = generateWorkload(cfg);
    ASSERT_EQ(trace.size(), 3u);
    // Sorted by arrival; equal arrivals keep file order; ids reissued.
    EXPECT_EQ(trace[0].arrival_us, 500.5);
    EXPECT_EQ(trace[0].prompt_len, 128u);
    EXPECT_EQ(trace[0].codebook_group, 3u);
    EXPECT_EQ(trace[1].arrival_us, 500.5);
    EXPECT_EQ(trace[1].prompt_len, 32u);
    EXPECT_EQ(trace[2].arrival_us, 2000.0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].id, i);
        EXPECT_EQ(trace[i].ttft_deadline_us, 1e6);
        EXPECT_EQ(trace[i].tbt_deadline_us, 2e5);
    }
}

TEST(WorkloadTrace, DrivesAFullSimulation)
{
    std::string lines;
    for (int i = 0; i < 12; ++i)
        lines += "{\"arrival_us\": " + std::to_string(i * 250000) +
                 ", \"prompt_len\": 256, \"output_len\": 32}\n";
    TraceFile file(lines);
    auto cfg = baseConfig(llm::QuantScheme::VQ4);
    cfg.workload.trace_path = file.path();
    auto a = ServingSimulator(cfg).run();
    auto b = ServingSimulator(cfg).run();
    EXPECT_EQ(a.completed_requests, 12u);
    EXPECT_EQ(a.json(), b.json());
}

TEST(WorkloadTraceDeath, MalformedLinesAreHardErrors)
{
    WorkloadConfig cfg;
    {
        TraceFile file("{\"arrival_us\": 0, \"prompt_len\": 64}\n");
        cfg.trace_path = file.path();
        EXPECT_DEATH(generateWorkload(cfg), "missing field 'output_len'");
    }
    {
        TraceFile file("not json at all\n");
        cfg.trace_path = file.path();
        EXPECT_DEATH(generateWorkload(cfg), "malformed trace line 1");
    }
    {
        TraceFile file("{\"arrival_us\": -5, \"prompt_len\": 64, "
                       "\"output_len\": 8}\n");
        cfg.trace_path = file.path();
        EXPECT_DEATH(generateWorkload(cfg), "arrival_us");
    }
    {
        TraceFile file("{\"arrival_us\": 0, \"prompt_len\": 3.5, "
                       "\"output_len\": 8}\n");
        cfg.trace_path = file.path();
        EXPECT_DEATH(generateWorkload(cfg), "non-negative integer");
    }
    {
        TraceFile file("{\"arrival_us\": 0, \"prompt_len\": 0, "
                       "\"output_len\": 8}\n");
        cfg.trace_path = file.path();
        EXPECT_DEATH(generateWorkload(cfg), "must be positive");
    }
    // Counts beyond 2^53 do not survive the conversion to an integer:
    // inf and 1e30 have no integer value, and 2^63 + 2^63 wraps the
    // scheduler's peak-context sum to 0.
    for (auto [line, field] :
         {std::pair{"{\"arrival_us\":0,\"prompt_len\":inf,"
                    "\"output_len\":8}\n",
                    "prompt_len"},
          std::pair{"{\"arrival_us\":0,\"prompt_len\":64,"
                    "\"output_len\":1e30}\n",
                    "output_len"},
          std::pair{"{\"arrival_us\":0,"
                    "\"prompt_len\":9223372036854775808,"
                    "\"output_len\":9223372036854775808}\n",
                    "prompt_len"}}) {
        TraceFile file(line);
        cfg.trace_path = file.path();
        EXPECT_DEATH(generateWorkload(cfg),
                     std::string("field '") + field +
                         "' must be a non-negative integer of at most "
                         "2\\^53")
            << line;
    }
    cfg.trace_path = "definitely_missing_trace.jsonl";
    EXPECT_DEATH(generateWorkload(cfg), "cannot open workload trace");
}

TEST(WorkloadTraceDeath, MutatedLinesLoadOrFailCleanly)
{
    // Up to three seeded byte edits (replace, insert, erase) of a valid
    // line, 64 times.  Each mutant must either load into a valid trace
    // (exit 0) or be a clean "malformed trace line" fatal (exit 1):
    // never a crash, a wrapped count or another error.
    const std::string valid = "{\"arrival_us\": 1500.5, \"prompt_len\": "
                              "512, \"output_len\": 64, \"group\": 3}";
    // Bytes that keep the line close to JSON, so mutants reach the
    // value checks and not only the parser.
    const std::string alphabet = "0123456789.-+eExp:,{}\" \tinfa\n";
    Rng rng(21);
    for (int trial = 0; trial < 64; ++trial) {
        std::string line = valid;
        const std::uint64_t edits = 1 + rng.uniformInt(3);
        for (std::uint64_t e = 0; e < edits && !line.empty(); ++e) {
            const std::size_t at = rng.uniformInt(line.size());
            const char byte =
                rng.uniformInt(2) == 0
                    ? alphabet[rng.uniformInt(alphabet.size())]
                    : static_cast<char>(1 + rng.uniformInt(255));
            switch (rng.uniformInt(3)) {
              case 0: line[at] = byte; break;
              case 1: line.insert(at, 1, byte); break;
              default: line.erase(at, 1); break;
            }
        }
        TraceFile file(line + "\n");
        WorkloadConfig cfg;
        cfg.trace_path = file.path();
        EXPECT_EXIT(
            {
                const std::vector<Request> trace = generateWorkload(cfg);
                for (const Request &r : trace)
                    if (!(std::isfinite(r.arrival_us) &&
                          r.arrival_us >= 0 && r.prompt_len > 0 &&
                          r.max_new_tokens > 0 &&
                          r.prompt_len <= (1ull << 53) &&
                          r.max_new_tokens <= (1ull << 53)))
                        std::exit(2);
                std::fprintf(stderr, "loaded %zu requests\n",
                             trace.size());
                std::exit(0);
            },
            [](int status) {
                return WIFEXITED(status) && (WEXITSTATUS(status) == 0 ||
                                             WEXITSTATUS(status) == 1);
            },
            "malformed trace line|loaded [0-9]+ requests")
            << "mutant " << trial << ": " << line;
    }
}

// ---------------------------------------------------------------------
// KV codebook residency

TEST(KvSchemePricing, CodebookGroupHoldsOneBookPerChannelGroup)
{
    // Per-channel-group scope: one codebook per vector_size channels of
    // the flattened KV heads (CQ-4 pairs, CQ-2 quads), for K and V, in
    // every layer.
    compiler::Engine eng(gpusim::rtx4090());
    struct Case
    {
        const llm::LlamaConfig *model;
        llm::KvScheme kv;
        std::uint64_t books_per_layer;
    };
    const Case cases[] = {
        {&llm::llama7b(), llm::KvScheme::VQ4, 4096}, // 32 x 128 channels
        {&llm::llama7b(), llm::KvScheme::VQ2, 2048},
        {&llm::llama70b(), llm::KvScheme::VQ4, 1024}, // 8 x 128 channels
        {&llm::llama70b(), llm::KvScheme::VQ2, 512},
    };
    for (const Case &c : cases) {
        IterationPricer pricer(eng, *c.model, llm::QuantScheme::FP16,
                               c.kv, llm::TpConfig{});
        EXPECT_EQ(pricer.codebookGroupBytes(),
                  c.books_per_layer * c.model->layers *
                      llm::kvSchemeVqConfig(c.kv).codebookBytes())
            << c.model->name << " " << llm::kvSchemeToken(c.kv);
    }
}

} // namespace
} // namespace vqllm::serving
