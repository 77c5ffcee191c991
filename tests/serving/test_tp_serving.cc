/**
 * @file
 * Tensor-parallel serving tests: the scheduler-level iteration pricer
 * must agree bit for bit with the analytical
 * llm::estimateTensorParallel model, degree 1 must be bit-identical to
 * the unsharded pricing formula, its memo tables must reproduce
 * unmemoized pricing exactly at every degree, and TP simulations must
 * stay deterministic across thread counts and repeated runs (TP runs
 * move raw Request pointers through preemption paths — any lifetime
 * or ordering bug shows up here).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/parallel.h"
#include "common/rng.h"
#include "compiler/engine.h"
#include "llm/e2e.h"
#include "llm/ops.h"
#include "llm/tensor_parallel.h"
#include "serving/scheduler.h"
#include "serving/simulator.h"

namespace vqllm::serving {
namespace {

using gpusim::rtx4090;

struct ThreadGuard
{
    ~ThreadGuard() { par::setThreads(0); }
};

llm::TpConfig
nvlink(int degree)
{
    llm::TpConfig tp;
    tp.degree = degree;
    return tp;
}

/** A decode batch of `n` requests whose context is exactly `ctx`. */
std::vector<Request>
decodeBatch(std::size_t n, std::size_t ctx)
{
    std::vector<Request> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
        reqs[i].id = i;
        reqs[i].prompt_len = ctx;
        reqs[i].max_new_tokens = 64;
    }
    return reqs;
}

std::vector<Request *>
ptrs(std::vector<Request> &reqs)
{
    std::vector<Request *> out;
    for (auto &r : reqs)
        out.push_back(&r);
    return out;
}

void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.ttft.count, b.ttft.count);
    EXPECT_EQ(a.ttft.p99_us, b.ttft.p99_us);
    EXPECT_EQ(a.tbt.count, b.tbt.count);
    EXPECT_EQ(a.tbt.p50_us, b.tbt.p50_us);
    EXPECT_EQ(a.tbt.p99_us, b.tbt.p99_us);
    EXPECT_EQ(a.e2e.mean_us, b.e2e.mean_us);
    EXPECT_EQ(a.sim_time_us, b.sim_time_us);
    EXPECT_EQ(a.busy_time_us, b.busy_time_us);
    EXPECT_EQ(a.tokens_per_sec, b.tokens_per_sec);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    EXPECT_EQ(a.rejected_requests, b.rejected_requests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
    EXPECT_EQ(a.comm_us, b.comm_us);
    EXPECT_EQ(a.comm_fraction, b.comm_fraction);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t i = 0; i < a.shards.size(); ++i)
        EXPECT_EQ(a.shards[i].kv_peak_bytes, b.shards[i].kv_peak_bytes);
}

// ---------------------------------------------------------------------
// Pricing consistency with the analytical model

TEST(TpPricing, DecodeStepMatchesAnalyticBitForBit)
{
    // A homogeneous decode batch at a bucket-aligned context is exactly
    // the analytical model's representative step, and both price it
    // through one llm::DecodeStep, so they agree bit for bit on every
    // model, scheme, degree, batch and context.
    const auto &spec = rtx4090();
    // One engine for both sides: each kernel compiles once.
    compiler::Engine &eng = compiler::Engine::shared(spec);
    for (const llm::LlamaConfig *model :
         {&llm::llama7b(), &llm::llama65b(), &llm::llama70b()}) {
        for (auto scheme : {llm::QuantScheme::FP16, llm::QuantScheme::EWQ4,
                            llm::QuantScheme::VQ4, llm::QuantScheme::VQ2}) {
            for (int degree : {1, 2, 4, 8}) {
                for (std::size_t batch : {1, 8, 32}) {
                    for (std::size_t ctx : {256, 1024, 4096}) {
                        SCOPED_TRACE(
                            model->name + " " +
                            llm::quantSchemeName(scheme) + " degree " +
                            std::to_string(degree) + " batch " +
                            std::to_string(batch) + " ctx " +
                            std::to_string(ctx));
                        IterationPricer pricer(
                            eng, *model, scheme,
                            llm::defaultKvScheme(scheme), nvlink(degree));
                        auto reqs = decodeBatch(batch, ctx);
                        double step_us = pricer.decodeUs(ptrs(reqs));

                        llm::E2EConfig e2e;
                        e2e.batch = batch;
                        e2e.prompt_len = ctx - 1;
                        e2e.gen_tokens = 2; // mid_seq = ctx
                        auto est = llm::estimateTensorParallel(
                            spec, *model, scheme, nvlink(degree), e2e);
                        EXPECT_EQ(step_us, est.decode_us / 2.0);
                        EXPECT_EQ(pricer.totals().comm_us,
                                  est.comm_us_per_step);
                    }
                }
            }
        }
    }
}

TEST(TpPricing, Degree1IsBitIdenticalToUnshardedFormula)
{
    const std::size_t batch = 4;
    const std::size_t ctx = 256;
    compiler::Engine eng(rtx4090());
    compiler::Engine ref_eng(rtx4090());
    IterationPricer pricer(eng, llm::llama7b(), llm::QuantScheme::VQ4,
                           llm::KvScheme::VQ4, llm::TpConfig{});
    auto reqs = decodeBatch(batch, ctx);
    auto batch_ptrs = ptrs(reqs);
    double priced = pricer.decodeUs(batch_ptrs);

    // The unsharded single-GPU pricing formula.
    const auto &model = llm::llama7b();
    double linear_us = 0;
    for (auto [n, k] : model.layerLinearShapes())
        linear_us += llm::schemeLinearUs(
            ref_eng, llm::QuantScheme::VQ4,
            engine::GemmShape{batch, n, k});
    double elem_us = llm::elementwiseLayerLatencyUs(
        eng.spec(), batch, model.hidden);
    double attn_us = llm::kvSchemeAttentionUs(
        ref_eng, llm::KvScheme::VQ4, model.attnShape(batch, ctx));
    double expected =
        (linear_us + elem_us + attn_us) * static_cast<double>(model.layers);
    EXPECT_DOUBLE_EQ(priced, expected);
    EXPECT_DOUBLE_EQ(pricer.totals().comm_us, 0.0);

    // Prefill chunks at degree 1 price the unsharded geometry: every
    // head and the full linear shapes over 256 x 512 + 256^2 / 2 key
    // positions.
    EXPECT_DOUBLE_EQ(
        pricer.prefillChunkUs(256, 512),
        llm::prefillLayersUs(eng.spec(), model, 256,
                             256.0 * 512 + 0.5 * 256 * 256, model.heads,
                             model.layerLinearShapes()));
    EXPECT_DOUBLE_EQ(pricer.commUs(256), 0.0);
}

TEST(TpPricing, ShardedChunkedPrefillConverges)
{
    // Degree-g chunked prefill must be cheaper than single-GPU but more
    // than 1/g of it (replicated attention span, uneven splits).
    const auto &spec = rtx4090();
    const auto &model = llm::llama7b();
    double single =
        llm::estimateChunkedPrefillUs(spec, model, 512, 1024, nvlink(1));
    for (int degree : {2, 4, 8}) {
        double sharded = llm::estimateChunkedPrefillUs(
            spec, model, 512, 1024, nvlink(degree));
        EXPECT_LT(sharded, single) << "degree " << degree;
        EXPECT_GT(sharded, single / (2.0 * degree)) << "degree " << degree;
    }
}

TEST(TpPricing, CodebookUploadShrinksWithDegree)
{
    compiler::Engine eng(rtx4090());
    IterationPricer single(eng, llm::llama7b(), llm::QuantScheme::VQ2,
                           llm::KvScheme::VQ2, nvlink(1));
    IterationPricer sharded(eng, llm::llama7b(), llm::QuantScheme::VQ2,
                            llm::KvScheme::VQ2, nvlink(4));
    ASSERT_GT(single.codebookMissUs(1), 0.0);
    // Per-device shard uploads overlap: roughly 1/4 the bytes, plus the
    // fixed launch cost.
    EXPECT_LT(sharded.codebookMissUs(1), single.codebookMissUs(1));
    EXPECT_GT(sharded.codebookMissUs(1), single.codebookMissUs(1) / 4.5);
}

// ---------------------------------------------------------------------
// Memo equivalence

/**
 * IterationPricer's arithmetic with no memo tables: every price
 * re-derived on each call through the public llm:: functions on the
 * reference's own engine, summed in the pricer's order.
 */
struct ReferencePricer
{
    ReferencePricer(compiler::Engine &eng_, const llm::LlamaConfig &model_,
                    llm::QuantScheme scheme_, llm::KvScheme kv_,
                    const llm::TpConfig &tp_)
        : eng(eng_), model(model_), scheme(scheme_), kv(kv_), tp(tp_)
    {
    }

    compiler::Engine &eng;
    const llm::LlamaConfig &model;
    llm::QuantScheme scheme;
    llm::KvScheme kv;
    llm::TpConfig tp;
    std::size_t seq_bucket = IterationPricer::kSeqBucket;

    double comm_us = 0;
    double kv_dequant_us = 0;
    IterationPricer::Breakdown totals;

    double
    prefillChunkUs(std::size_t tokens, std::size_t context) const
    {
        auto bucketTo = [](std::size_t n, std::size_t b) {
            return ((n + b - 1) / b) * b;
        };
        std::size_t fine = std::min<std::size_t>(
            32, std::max<std::size_t>(seq_bucket / 8, 1));
        tokens = std::max<std::size_t>(tokens, 1);
        std::size_t slice = tokens < seq_bucket
                                ? bucketTo(tokens, fine)
                                : bucketTo(tokens, seq_bucket);
        std::size_t ctx = context == 0 ? 0 : bucketTo(context, seq_bucket);
        return llm::estimateChunkedPrefillUs(eng.spec(), model, slice, ctx,
                                             tp);
    }

    double
    decodeUs(const std::vector<Request *> &batch)
    {
        std::map<std::size_t, std::size_t> bucket_counts;
        for (const Request *r : batch) {
            std::size_t ctx = std::max<std::size_t>(r->contextTokens(), 1);
            ++bucket_counts[((ctx + seq_bucket - 1) / seq_bucket) *
                            seq_bucket];
        }
        const std::size_t n = batch.size();
        const double elem_us =
            llm::elementwiseLayerLatencyUs(eng.spec(), n, model.hidden);
        const double layers = static_cast<double>(model.layers);
        double attn_us = 0;
        for (auto [bucket, count] : bucket_counts)
            attn_us += llm::decodeAttnUs(eng, model, kv, tp, count, bucket);
        const double step_us =
            llm::decodeLinearUs(eng, model, scheme, tp, n) + elem_us +
            attn_us;
        if (kv != llm::KvScheme::FP16) {
            double fp16_us = 0;
            for (auto [bucket, count] : bucket_counts)
                fp16_us += llm::decodeAttnUs(eng, model, llm::KvScheme::FP16,
                                             tp, count, bucket);
            kv_dequant_us += (attn_us - fp16_us) * layers;
        }
        double step_comm_us =
            llm::layerAllReduceUs(tp, n, model.hidden) * layers;
        comm_us += step_comm_us;
        totals.decode_us += step_us * layers;
        return step_us * layers + step_comm_us;
    }

    double
    iterationUs(const Scheduler::Iteration &it)
    {
        double us = 0;
        for (const auto &chunk : it.prefill) {
            double chunk_us = prefillChunkUs(chunk.tokens, chunk.context);
            us += chunk_us;
            totals.prefill_us += chunk_us;
            double chunk_comm_us =
                llm::layerAllReduceUs(tp, chunk.tokens, model.hidden) *
                static_cast<double>(model.layers);
            comm_us += chunk_comm_us;
            us += chunk_comm_us;
        }
        if (!it.decode.empty())
            us += decodeUs(it.decode);
        return us;
    }
};

/** A ragged decode batch: 1-64 requests with contexts drawn up to
 *  256, 2048 or 8192 tokens (1 to 32 context buckets). */
std::vector<Request>
raggedBatch(Rng &rng)
{
    static const std::size_t kSpans[] = {256, 2048, 8192};
    const std::size_t span = kSpans[rng.uniformInt(3)];
    std::vector<Request> reqs(1 + rng.uniformInt(64));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].prompt_len = 1 + rng.uniformInt(span);
        reqs[i].generated = rng.uniformInt(2);
    }
    return reqs;
}

TEST(PricerMemo, MatchesUnmemoizedReferenceOnRaggedBatches)
{
    constexpr int kSteps = 60;
    struct Group
    {
        const llm::LlamaConfig *model;
        int degree;
    };
    // Llama-2-70B at degree 8 shards GQA KV heads, one per device.
    const Group groups[] = {{&llm::llama7b(), 1},
                            {&llm::llama7b(), 2},
                            {&llm::llama7b(), 4},
                            {&llm::llama70b(), 8}};
    for (auto scheme : {llm::QuantScheme::FP16, llm::QuantScheme::EWQ4,
                        llm::QuantScheme::VQ4}) {
        for (auto kv : {llm::KvScheme::FP16, llm::KvScheme::INT4,
                        llm::KvScheme::VQ4}) {
            for (auto [model_ptr, degree] : groups) {
                const llm::LlamaConfig &model = *model_ptr;
                SCOPED_TRACE(model.name + ", " +
                             llm::quantSchemeName(scheme) + " weights, " +
                             llm::kvSchemeName(kv) + " KV, degree " +
                             std::to_string(degree));
                compiler::Engine eng(rtx4090());
                compiler::Engine ref_eng(rtx4090());
                IterationPricer pricer(eng, model, scheme, kv,
                                       nvlink(degree));
                ReferencePricer ref(ref_eng, model, scheme, kv,
                                    nvlink(degree));
                Rng rng(0x5eed + static_cast<std::uint64_t>(degree));

                std::vector<std::vector<Request>> batches;
                std::vector<Request> prompts(3);
                std::size_t replays = 0;
                std::size_t replayed_decodes = 0;
                for (int step = 0; step < kSteps; ++step) {
                    // A third of the steps replay an earlier batch, so
                    // every memo table serves hits as well as misses.
                    bool replay = false;
                    if (!batches.empty() && rng.uniformInt(3) == 0) {
                        batches.push_back(
                            batches[rng.uniformInt(batches.size())]);
                        ++replays;
                        replay = true;
                    } else {
                        batches.push_back(raggedBatch(rng));
                    }
                    auto batch = ptrs(batches.back());

                    // Steps alternate: a bare decodeUs call, a
                    // decode-only iteration, and a mixed iteration
                    // whose slices cross the fine/whole-bucket split.
                    double priced = 0;
                    double expected = 0;
                    const int mode = step % 3;
                    if (mode == 0) {
                        const compiler::CacheStats before = eng.stats();
                        priced = pricer.decodeUs(batch);
                        expected = ref.decodeUs(batch);
                        if (replay) {
                            // Every price of a replayed batch is a memo
                            // hit: the engine sees no lookup at all.
                            const compiler::CacheStats after = eng.stats();
                            ASSERT_EQ(after.hits, before.hits)
                                << "step " << step;
                            ASSERT_EQ(after.misses, before.misses)
                                << "step " << step;
                            ++replayed_decodes;
                        }
                    } else {
                        Scheduler::Iteration it;
                        it.decode = batch;
                        if (mode == 2) {
                            for (auto &p : prompts) {
                                std::size_t ctx =
                                    rng.uniformInt(2) == 0
                                        ? 0
                                        : 1 + rng.uniformInt(4000);
                                it.prefill.push_back(
                                    {&p, 1 + rng.uniformInt(700), ctx,
                                     false});
                            }
                        }
                        priced = pricer.iterationUs(it);
                        expected = ref.iterationUs(it);
                    }
                    ASSERT_EQ(priced, expected) << "step " << step;
                    ASSERT_EQ(pricer.kvDequantUs(), ref.kv_dequant_us);
                    const IterationPricer::Breakdown totals =
                        pricer.totals();
                    ASSERT_EQ(totals.prefill_us, ref.totals.prefill_us);
                    ASSERT_EQ(totals.decode_us, ref.totals.decode_us);
                    ASSERT_EQ(totals.comm_us, ref.comm_us);
                    ASSERT_EQ(totals.codebook_upload_us, 0.0);
                }
                EXPECT_GT(replays, 0u);
                EXPECT_GT(replayed_decodes, 0u);

                const bool closed_form =
                    scheme != llm::QuantScheme::VQ4 &&
                    kv != llm::KvScheme::VQ4;
                if (closed_form)
                    EXPECT_EQ(eng.stats().lookups(), 0u);
                else
                    EXPECT_GT(eng.stats().lookups(), 0u);
                // Both engines compile the same kernels; the memo only
                // drops the repeated lookups.
                EXPECT_EQ(eng.stats().misses, ref_eng.stats().misses);
                EXPECT_LE(eng.stats().lookups(),
                          ref_eng.stats().lookups());
            }
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end simulation

SimulatorConfig
tpConfig(int degree, llm::QuantScheme scheme = llm::QuantScheme::VQ4)
{
    SimulatorConfig cfg;
    cfg.scheme = scheme;
    cfg.tp = nvlink(degree);
    cfg.workload.qps = 6;
    cfg.workload.duration_s = 4;
    return cfg;
}

TEST(TpSimulation, Degree1ReportIdenticalToDefaultConfig)
{
    SimulatorConfig plain;
    plain.workload.qps = 6;
    plain.workload.duration_s = 4;
    auto a = ServingSimulator(plain).run();
    auto b = ServingSimulator(tpConfig(1, plain.scheme)).run();
    expectReportsIdentical(a, b);
    EXPECT_EQ(b.tp_degree, 1u);
    EXPECT_EQ(b.comm_us, 0.0);
    ASSERT_EQ(b.shards.size(), 1u);
    EXPECT_EQ(b.shards[0].kv_peak_bytes, b.kv_peak_bytes);
    EXPECT_EQ(b.shards[0].kv_capacity_bytes, b.kv_capacity_bytes);
}

TEST(TpSimulation, Degree4ShardsDecodeAndPricesCollectives)
{
    auto single = ServingSimulator(tpConfig(1)).run();
    auto tp4 = ServingSimulator(tpConfig(4)).run();

    EXPECT_EQ(tp4.tp_degree, 4u);
    ASSERT_EQ(tp4.shards.size(), 4u);
    // Sharded decode is faster per token...
    EXPECT_LT(tp4.tbt.p50_us, single.tbt.p50_us);
    // ...but pays for collectives.
    EXPECT_GT(tp4.comm_us, 0.0);
    EXPECT_GT(tp4.comm_fraction, 0.0);
    EXPECT_LT(tp4.comm_fraction, 0.5);
    // Weights shard across devices, so each device's pool exceeds the
    // single-GPU pool and the aggregate grows superlinearly.
    EXPECT_GT(tp4.shards[0].kv_capacity_bytes, single.kv_capacity_bytes);
    EXPECT_GT(tp4.kv_capacity_bytes, 4 * single.kv_capacity_bytes);
    // Per-shard peaks sum to the aggregate high-water mark.
    std::uint64_t shard_peak_sum = 0;
    for (const auto &s : tp4.shards)
        shard_peak_sum += s.kv_peak_bytes;
    EXPECT_EQ(shard_peak_sum, tp4.kv_peak_bytes);
}

TEST(TpSimulation, PreemptionUnderShardedPoolsIsDeterministic)
{
    ThreadGuard guard;
    // Tight per-device pools force preemption/recompute through the
    // sharded facade; the event loop must stay bit-deterministic across
    // repeated runs and host thread counts.
    SimulatorConfig cfg = tpConfig(2, llm::QuantScheme::FP16);
    cfg.hbm_gb = 8.5; // ~1.2 GB per-device pool under 7B FP16 shards
    cfg.workload.qps = 10;
    cfg.workload.duration_s = 4;
    cfg.workload.prompt_len_median = 1024;

    par::setThreads(1);
    auto a = ServingSimulator(cfg).run();
    par::setThreads(8);
    auto b = ServingSimulator(cfg).run();
    auto c = ServingSimulator(cfg).run();
    EXPECT_GT(a.preemptions, 0u)
        << "config no longer forces preemptions; tighten hbm_gb";
    expectReportsIdentical(a, b);
    expectReportsIdentical(b, c);
}

TEST(TpSimulation, RunManyTpConfigsMatchesSerialRuns)
{
    ThreadGuard guard;
    std::vector<SimulatorConfig> cfgs;
    for (int degree : {1, 2, 4})
        cfgs.push_back(tpConfig(degree));
    par::setThreads(1);
    std::vector<ServingReport> serial;
    for (const auto &cfg : cfgs)
        serial.push_back(ServingSimulator(cfg).run());
    par::setThreads(8);
    auto fanned = ServingSimulator::runMany(cfgs);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectReportsIdentical(serial[i], fanned[i]);
}

// A TP degree or HBM budget arrives from outside the library, so a bad
// one is a clean fatal (exit 1), not an internal assertion (abort).
TEST(TpSimulationDeath, RejectsUnevenHeadSharding)
{
    EXPECT_EXIT(ServingSimulator(tpConfig(3)), testing::ExitedWithCode(1),
                "TP degree 3 must divide .* 32 heads evenly");
}

TEST(TpSimulationDeath, RejectsDegreeAboveKvHeads)
{
    SimulatorConfig cfg = tpConfig(16);
    cfg.model = &llm::llama70b();
    EXPECT_EXIT(ServingSimulator{cfg}, testing::ExitedWithCode(1),
                "TP degree 16 exceeds .* 8 KV heads");
}

TEST(TpSimulationDeath, RejectsKvBudgetOutsideUint64)
{
    // 1e11 GB is 1e20 bytes, past what the byte count can hold.
    for (double hbm_gb : {1e11, std::nan("")}) {
        SimulatorConfig cfg = tpConfig(1);
        cfg.hbm_gb = hbm_gb;
        EXPECT_EXIT(ServingSimulator{cfg}, testing::ExitedWithCode(1),
                    "KV budget must be > 0 and < 2")
            << "hbm_gb " << hbm_gb;
    }
}

} // namespace
} // namespace vqllm::serving