/**
 * @file
 * Host-side cost benchmarks (google-benchmark): the offline phase of
 * VQ-LLM — kernel planning, thread-mapping computation, CUDA emission,
 * k-means training, nearest-entry encoding, quantization/dequantization
 * throughput, access-histogram construction and the bank-conflict
 * estimator.  These are the real CPU
 * costs a deployment pays when generating kernels.  Serving-side costs
 * ride along: the prefix cache's longest-match lookup and
 * reclaimable-capacity query, the KV pool's per-token decode append,
 * the iteration pricer's decode step and the end-of-run latency
 * summary.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "codegen/cuda_emitter.h"
#include "common/rng.h"
#include "compiler/engine.h"
#include "gpusim/bank_conflict.h"
#include "kernels/vq_kernels.h"
#include "llm/model_config.h"
#include "serving/metrics.h"
#include "serving/prefix_cache.h"
#include "serving/scheduler.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"
#include "vq/quantizer.h"

using namespace vqllm;

namespace {

void
BM_CompileAttentionKernel(benchmark::State &state)
{
    // Capacity 0 retains nothing: each iteration pays the full
    // plan + cost pipeline (the cold-compile cost a deployment pays
    // per distinct kernel).  The bank-conflict estimate inside it is
    // served by the kernel estimators' process-wide memo after the
    // first iteration, as it is for every later compile in a
    // deployment.
    compiler::EngineOptions opts;
    opts.cache_capacity = 0;
    compiler::Engine eng(gpusim::rtx4090(), opts);
    auto hist = vq::syntheticZipfHistogram(256);
    auto request = compiler::KernelRequest::attentionOp(
        {8, 32, 4096, 128}, vq::cq2(),
        static_cast<engine::OptLevel>(state.range(0)), &hist);
    for (auto _ : state) {
        auto kernel = eng.compile(request);
        benchmark::DoNotOptimize(kernel);
    }
}
BENCHMARK(BM_CompileAttentionKernel)->Arg(5)->Arg(2)->Name(
    "compile_attention_kernel(level)");

void
BM_CompileCacheHit(benchmark::State &state)
{
    compiler::Engine eng(gpusim::rtx4090());
    auto hist = vq::syntheticZipfHistogram(256);
    auto request = compiler::KernelRequest::attentionOp(
        {8, 32, 4096, 128}, vq::cq2(), engine::OptLevel::O4, &hist);
    eng.compile(request); // warm
    for (auto _ : state) {
        auto kernel = eng.compile(request);
        benchmark::DoNotOptimize(kernel);
    }
}
BENCHMARK(BM_CompileCacheHit)->Name("compile_cache_hit");

void
BM_CompileBestCacheHit(benchmark::State &state)
{
    // The serving pricer's call: a QuiP#-4 GeMV against its profile
    // histogram, best of O2-O4 on a warm engine: three key lookups
    // that read the histogram's digest, derived when it was built.
    compiler::Engine eng(gpusim::rtx4090());
    const vq::VQConfig cfg = vq::quip4();
    auto hist = vq::syntheticZipfHistogram(cfg.storedEntries());
    auto request = compiler::KernelRequest::gemvOp(
        {1, 4096, 4096}, cfg, engine::OptLevel::O4, &hist);
    const std::vector<engine::OptLevel> levels = {
        engine::OptLevel::O2, engine::OptLevel::O3, engine::OptLevel::O4};
    eng.compileBest(request, levels); // warm
    for (auto _ : state) {
        auto kernel = eng.compileBest(request, levels);
        benchmark::DoNotOptimize(kernel);
    }
}
BENCHMARK(BM_CompileBestCacheHit)->Name("compile_best_cache_hit");

void
BM_CompileColdAqlm3Gemv(benchmark::State &state)
{
    // A cold compile at paper scale: AQLM-3's 4,096-entry book (the
    // compile_sweep histogram fit), Llama-7B decode GeMV, capacity 0.
    // The attention row above uses a 256-entry book, where the
    // per-compile histogram facts cost a few microseconds; here each
    // compile reads them off the histogram instead of re-deriving
    // them.  The conflict estimate is memo-warm after the first
    // iteration.
    compiler::EngineOptions opts;
    opts.cache_capacity = 0;
    compiler::Engine eng(gpusim::rtx4090(), opts);
    const auto &hist = bench::sampleHistogram(vq::aqlm3());
    auto request = compiler::KernelRequest::gemvOp(
        bench::llama7b().gemm(1), vq::aqlm3(),
        static_cast<engine::OptLevel>(state.range(0)), &hist);
    for (auto _ : state) {
        auto kernel = eng.compile(request);
        benchmark::DoNotOptimize(kernel);
    }
}
BENCHMARK(BM_CompileColdAqlm3Gemv)->Arg(2)->Arg(5)->Name(
    "compile_cold_aqlm3_gemv(level)");

void
BM_BuildAccessHistogram(benchmark::State &state)
{
    // Building a 4,096-entry histogram from random counts: one sort for
    // the frequency order, the moments and the content digest, paid
    // once per profiled book.
    Rng rng(4096);
    std::vector<std::uint64_t> counts(4096);
    for (auto &c : counts)
        c = rng.uniformInt(1000);
    for (auto _ : state) {
        vq::AccessHistogram hist(counts);
        benchmark::DoNotOptimize(hist.digest());
    }
}
BENCHMARK(BM_BuildAccessHistogram)->Name("build_access_histogram_4096");

void
BM_ThreadMapping(benchmark::State &state)
{
    for (auto _ : state) {
        auto m = engine::computeThreadMapping(
            32, static_cast<int>(state.range(0)), 1);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_ThreadMapping)->Arg(4)->Arg(8)->Name(
    "thread_mapping(vector_size)");

void
BM_EmitCudaKernel(benchmark::State &state)
{
    compiler::Engine eng(gpusim::rtx4090());
    auto kernel = eng.compile(compiler::KernelRequest::attentionOp(
        {1, 32, 1024, 128}, vq::cq2(), engine::OptLevel::O4));
    for (auto _ : state) {
        auto src = codegen::emitCudaKernel(kernel->plan());
        benchmark::DoNotOptimize(src);
    }
}
BENCHMARK(BM_EmitCudaKernel)->Name("emit_cuda_kernel");

void
BM_KMeansTraining(benchmark::State &state)
{
    Rng rng(1);
    auto data = generateClustered(
        2048, 4, ClusteredDataSpec{}, rng);
    vq::KMeansOptions opts;
    opts.max_iters = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto res = vq::kMeans(data, 256, opts);
        benchmark::DoNotOptimize(res.inertia);
    }
}
BENCHMARK(BM_KMeansTraining)->Arg(2)->Arg(8)->Unit(
    benchmark::kMillisecond)->Name("kmeans_256_entries(iters)");

/** The repo benchmark's AQLM-3 histogram input: 8,192 clustered 8-D
 *  rows with a duplicate pool. */
Tensor<float>
aqlm3FitData()
{
    Rng rng(1);
    ClusteredDataSpec spec;
    spec.num_clusters = 512;
    spec.popularity_alpha = 0.3;
    spec.duplicate_pool = 22;
    spec.duplicate_fraction = 0.16;
    return generateClustered(8192, 8, spec, rng);
}

/** The repo benchmark's histogram-fit k-means budget. */
vq::KMeansOptions
histogramFitOptions()
{
    vq::KMeansOptions opts;
    opts.max_iters = 4;
    opts.sample_limit = 1024;
    return opts;
}

void
BM_QuantizeFitAqlm3(benchmark::State &state)
{
    // The slowest of compile_sweep's five set-up fits: two residual
    // stages of a 4,096-entry book, each a k-means fit on a 1,024-row
    // sample plus an encode of all 8,192 rows.
    const auto data = aqlm3FitData();
    const vq::VectorQuantizer quantizer(vq::aqlm3(), histogramFitOptions());
    for (auto _ : state) {
        auto qt = quantizer.quantize(data);
        benchmark::DoNotOptimize(qt.indices.sizeBytes());
    }
}
BENCHMARK(BM_QuantizeFitAqlm3)->Unit(benchmark::kMillisecond)->Name(
    "quantize_fit_aqlm3");

void
BM_CodebookEncode(benchmark::State &state)
{
    // Nearest-entry encoding against a fitted plain book, 1,024 rows
    // of the AQLM-3 input per iteration.
    const auto data = aqlm3FitData();
    const auto book = vq::Codebook::plain(
        vq::kMeans(data, static_cast<std::size_t>(state.range(0)),
                   histogramFitOptions())
            .centroids);
    constexpr std::size_t kRows = 1024;
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (std::size_t r = 0; r < kRows; ++r)
            sum += book.encode(data.data() + r * 8);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kRows);
}
BENCHMARK(BM_CodebookEncode)->Arg(256)->Arg(4096)->Name(
    "codebook_encode(k)");

void
BM_QuantizeDequantize(benchmark::State &state)
{
    Rng rng(2);
    auto data = generateClustered(
        static_cast<std::size_t>(state.range(0)), 32,
        ClusteredDataSpec{}, rng);
    vq::VQConfig cfg = vq::cq2();
    cfg.num_entries = 64;
    vq::KMeansOptions opts;
    opts.max_iters = 4;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(data);
    for (auto _ : state) {
        auto rec = vq::VectorQuantizer::dequantize(qt);
        benchmark::DoNotOptimize(rec.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * data.size() *
        sizeof(float));
}
BENCHMARK(BM_QuantizeDequantize)->Arg(256)->Arg(1024)->Name(
    "dequantize_rows");

void
BM_ConflictEstimator(benchmark::State &state)
{
    // The Monte-Carlo run itself: the estimator is uncached (the
    // kernel estimators memoize it), so every iteration simulates.
    const auto &spec = gpusim::rtx4090();
    for (auto _ : state) {
        double m = gpusim::expectedConflictMultiplier(
            spec, 256, 8, static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_ConflictEstimator)->Arg(64)->Arg(512)->Name(
    "bank_conflict_estimator(samples)");

void
BM_EstimateVqAttention(benchmark::State &state)
{
    compiler::Engine eng(gpusim::rtx4090());
    auto hist = vq::syntheticZipfHistogram(256);
    auto kernel = eng.compile(compiler::KernelRequest::attentionOp(
        {8, 32, 4096, 128}, vq::cq2(), engine::OptLevel::O4, &hist));
    for (auto _ : state) {
        auto r = kernels::estimateVqAttentionKernel(
            gpusim::rtx4090(), kernel->plan(), &hist);
        benchmark::DoNotOptimize(r.latency.total_us);
    }
}
BENCHMARK(BM_EstimateVqAttention)->Name("estimate_vq_attention");

void
BM_PrefixCacheMatch(benchmark::State &state)
{
    // The admission-time lookup over 32 tenants' 1000-token system
    // prompts (62 full blocks and an 8-token tail each), all cached:
    // every lookup walks a whole chain down the trie's child pointers
    // (one root-list find, then one child-list scan per block, tail
    // included).  Lookups rotate through the tenants.
    constexpr std::size_t kBlockTokens = 16;
    constexpr std::size_t kChains = 32;
    constexpr std::size_t kPrefixTokens = 1000;
    constexpr std::size_t kChainBlocks = kPrefixTokens / kBlockTokens + 1;
    serving::KvBlockPoolConfig cfg;
    cfg.block_tokens = kBlockTokens;
    cfg.bytes_per_token = 1;
    // Every chain's blocks, each tail's cache-owned copy, one writer.
    cfg.capacity_bytes = (2 * kChains + 1) * kChainBlocks * kBlockTokens;
    serving::KvBlockPool pool(cfg);
    serving::PrefixCache cache(pool, 0);
    std::vector<serving::Request> lookups(kChains);
    for (std::size_t g = 0; g < kChains; ++g) {
        serving::Request &r = lookups[g];
        r.id = g + 1;
        r.prefix_group = static_cast<std::int64_t>(g);
        r.prefix_tokens = kPrefixTokens;
        r.prompt_len = kPrefixTokens + 64;
        if (!pool.allocSequence(r.id, r.prompt_len)) {
            state.SkipWithError("KV pool too small for the chains");
            return;
        }
        r.prefilled_tokens = r.prompt_len;
        cache.onPrefillAdvance(r);
        pool.freeSequence(r.id);
        cache.onRelease(r.id);
        r.prefilled_tokens = 0;
    }
    std::size_t next = 0;
    for (auto _ : state) {
        auto m = cache.match(lookups[next]);
        benchmark::DoNotOptimize(m.tokens);
        next = next + 1 == kChains ? 0 : next + 1;
    }
    state.counters["cached_blocks"] =
        static_cast<double>(cache.cachedBlocks());
}
BENCHMARK(BM_PrefixCacheMatch)->Name("prefix_cache_match");

void
BM_PrefixCacheEvictableBlocks(benchmark::State &state)
{
    // The reclaimable-capacity query the KV pool runs on every prefill
    // slice, over 32 retired tenants' 60-block system prompts: 1,920
    // cached nodes, one leaf per chain; the query scans the leaf index,
    // not the trie.
    constexpr std::size_t kBlockTokens = 16;
    constexpr std::size_t kChains = 32;
    constexpr std::size_t kChainBlocks = 60;
    serving::KvBlockPoolConfig cfg;
    cfg.block_tokens = kBlockTokens;
    cfg.bytes_per_token = 1;
    // Room for every cached chain plus one live writer.
    cfg.capacity_bytes = (kChains + 1) * (kChainBlocks + 1) * kBlockTokens;
    serving::KvBlockPool pool(cfg);
    serving::PrefixCache cache(pool, 0);
    for (std::size_t g = 0; g < kChains; ++g) {
        serving::Request r;
        r.id = g + 1;
        r.prefix_group = static_cast<std::int64_t>(g);
        r.prefix_tokens = kChainBlocks * kBlockTokens;
        r.prompt_len = r.prefix_tokens + 1;
        if (!pool.allocSequence(r.id, r.prompt_len)) {
            state.SkipWithError("KV pool too small for the chains");
            return;
        }
        r.prefilled_tokens = r.prompt_len;
        cache.onPrefillAdvance(r);
        pool.freeSequence(r.id);
        cache.onRelease(r.id);
    }
    for (auto _ : state) {
        std::uint64_t blocks = cache.evictableBlocks();
        benchmark::DoNotOptimize(blocks);
    }
    state.counters["cached_blocks"] =
        static_cast<double>(cache.cachedBlocks());
}
BENCHMARK(BM_PrefixCacheEvictableBlocks)
    ->Name("prefix_cache_evictable_blocks");

void
BM_KvPoolAppendToken(benchmark::State &state)
{
    // One decode step's KV append, the pool op every running sequence
    // pays per generated token.  The sequence holds ~64 blocks: it
    // grows from 56 to 72 blocks over each 256-token window, then is
    // re-allocated at 56 blocks with the timer paused.
    constexpr std::size_t kBlockTokens = 16;
    constexpr std::size_t kStartTokens = 56 * kBlockTokens;
    constexpr std::size_t kWindow = 16 * kBlockTokens;
    serving::KvBlockPoolConfig cfg;
    cfg.block_tokens = kBlockTokens;
    cfg.bytes_per_token = 1;
    cfg.capacity_bytes = 128 * kBlockTokens;
    serving::KvBlockPool pool(cfg);
    if (!pool.allocSequence(1, kStartTokens)) {
        state.SkipWithError("KV pool too small for the sequence");
        return;
    }
    std::size_t appended = 0;
    for (auto _ : state) {
        if (appended == kWindow) {
            state.PauseTiming();
            pool.freeSequence(1);
            pool.allocSequence(1, kStartTokens);
            appended = 0;
            state.ResumeTiming();
        }
        bool ok = pool.appendToken(1);
        benchmark::DoNotOptimize(ok);
        ++appended;
    }
}
BENCHMARK(BM_KvPoolAppendToken)->Name("kv_pool_append_token");

void
BM_IterationPricerDecode(benchmark::State &state)
{
    // One decode step priced by a warm pricer: a fixed ragged batch of
    // 32 requests, four in each of 8 context buckets.  Arg 0 prices
    // EWQ4 weights with INT4 KV (closed forms), arg 1 VQ4 weights with
    // VQ4 KV (compiled kernels).  Both price from the pricer's memo
    // tables once warm, with no engine lookup.
    const bool vq = state.range(0) != 0;
    compiler::Engine eng(gpusim::rtx4090());
    serving::IterationPricer pricer(
        eng, llm::llama7b(),
        vq ? llm::QuantScheme::VQ4 : llm::QuantScheme::EWQ4,
        vq ? llm::KvScheme::VQ4 : llm::KvScheme::INT4, llm::TpConfig{});
    const std::size_t bucket = serving::IterationPricer::kSeqBucket;
    Rng rng(16);
    std::vector<serving::Request> reqs(32);
    std::vector<serving::Request *> batch;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].prompt_len = (i % 8) * bucket + 1 + rng.uniformInt(bucket - 1);
        batch.push_back(&reqs[i]);
    }
    pricer.decodeUs(batch); // warm
    for (auto _ : state) {
        double us = pricer.decodeUs(batch);
        benchmark::DoNotOptimize(us);
    }
}
BENCHMARK(BM_IterationPricerDecode)->Arg(0)->Arg(1)->Name(
    "iteration_pricer_decode(vq)");

void
BM_LatencySummarize(benchmark::State &state)
{
    // The end-of-run TBT summary of a serve_ewq4_prefix-sized run: a
    // decode step records one equal sample per sequence, so ~734k
    // samples form ~16k runs, here of 1-90 equal step prices drawn
    // from 4,096 distinct ones (10-60 ms).
    Rng rng(23);
    std::vector<double> steps(4096);
    for (double &v : steps)
        v = rng.uniform(1e4, 6e4);
    std::vector<double> samples;
    for (int run = 0; run < 16144; ++run)
        samples.insert(samples.end(), 1 + rng.uniformInt(90),
                       steps[rng.uniformInt(steps.size())]);
    for (auto _ : state) {
        auto s = serving::summarize(samples);
        benchmark::DoNotOptimize(s.mean_us);
    }
    state.counters["samples"] = static_cast<double>(samples.size());
}
BENCHMARK(BM_LatencySummarize)->Unit(benchmark::kMillisecond)->Name(
    "latency_summarize");

} // namespace

BENCHMARK_MAIN();
