/**
 * @file
 * Tests for the compiler::Engine facade: artifact parity with the
 * hand-stitched pipeline, memoization semantics (same pointer, hit and
 * eviction counters), cross-thread sharing, and the execution hooks.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "codegen/cuda_emitter.h"
#include "compiler/engine.h"
#include "engine/template_engine.h"
#include "kernels/reference.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"
#include "vq/quantizer.h"

namespace vqllm::compiler {
namespace {

using engine::OptLevel;

KernelRequest
gemvRequest(OptLevel level = OptLevel::O4,
            const vq::AccessHistogram *hist = nullptr)
{
    return KernelRequest::gemvOp({1, 4096, 4096}, vq::gptvq2(), level,
                                 hist);
}

TEST(CompilerEngine, ArtifactMatchesHandStitchedPipeline)
{
    const auto &spec = gpusim::rtx4090();
    auto hist = vq::syntheticZipfHistogram(256);

    Engine eng(spec);
    auto kernel = eng.compile(gemvRequest(OptLevel::O4, &hist));

    engine::PlanInputs in;
    in.spec = &spec;
    in.histogram = &hist;
    auto plan = engine::planWeightKernel(engine::OpKind::GeMV,
                                         {1, 4096, 4096}, vq::gptvq2(),
                                         OptLevel::O4, in);
    auto estimate = kernels::estimateVqWeightKernel(spec, plan, &hist);

    EXPECT_EQ(kernel->plan().summary(), plan.summary());
    EXPECT_DOUBLE_EQ(kernel->latencyUs(), estimate.us());
    EXPECT_EQ(kernel->symbolName(), codegen::kernelSymbolName(plan));
    EXPECT_EQ(kernel->source(), codegen::emitCudaKernel(plan));
    EXPECT_EQ(codegen::validateCudaSource(kernel->source()), "");
}

TEST(CompilerEngine, AttentionArtifactMatchesPipeline)
{
    const auto &spec = gpusim::teslaA40();
    Engine eng(spec);
    auto kernel = eng.compile(KernelRequest::attentionOp(
        {1, 32, 2048, 128}, vq::cq2(), OptLevel::O3));

    engine::PlanInputs in;
    in.spec = &spec;
    auto plan = engine::planAttentionKernel({1, 32, 2048, 128},
                                            vq::cq2(), OptLevel::O3, in);
    auto estimate = kernels::estimateVqAttentionKernel(spec, plan);
    EXPECT_EQ(kernel->plan().summary(), plan.summary());
    EXPECT_DOUBLE_EQ(kernel->latencyUs(), estimate.us());
}

TEST(CompilerEngine, RepeatedCompileReturnsSameArtifact)
{
    Engine eng(gpusim::rtx4090());
    auto a = eng.compile(gemvRequest());
    auto b = eng.compile(gemvRequest());
    EXPECT_EQ(a.get(), b.get());

    auto stats = eng.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.size, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(CompilerEngine, DistinctRequestsCompileDistinctArtifacts)
{
    Engine eng(gpusim::rtx4090());
    auto o2 = eng.compile(gemvRequest(OptLevel::O2));
    auto o4 = eng.compile(gemvRequest(OptLevel::O4));
    EXPECT_NE(o2.get(), o4.get());
    EXPECT_NE(o2->symbolName(), o4->symbolName());
    EXPECT_EQ(eng.stats().misses, 2u);
}

TEST(CompilerEngine, CompileBestPicksLowestLatency)
{
    Engine eng(gpusim::rtx4090());
    std::vector<OptLevel> levels = {OptLevel::O2, OptLevel::O3,
                                    OptLevel::O4};
    auto best = eng.compileBest(gemvRequest(), levels);
    EXPECT_EQ(eng.stats().misses, 3u);

    // Warm: every rung is one hit, and the same artifact wins.
    auto warm = eng.compileBest(gemvRequest(), levels);
    EXPECT_EQ(warm.get(), best.get());
    EXPECT_EQ(eng.stats().hits, 3u);
    EXPECT_EQ(eng.stats().misses, 3u);

    for (auto level : levels) {
        auto k = eng.compile(gemvRequest(level));
        EXPECT_LE(best->latencyUs(), k->latencyUs())
            << engine::optLevelName(level);
    }

    // Capacity 0: every rung of every call misses and is evicted.
    EngineOptions opts;
    opts.cache_capacity = 0;
    Engine cold(gpusim::rtx4090(), opts);
    for (std::uint64_t call = 1; call <= 2; ++call) {
        auto k = cold.compileBest(gemvRequest(), levels);
        EXPECT_DOUBLE_EQ(k->latencyUs(), best->latencyUs());
        auto stats = cold.stats();
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.misses, 3 * call);
        EXPECT_EQ(stats.evictions, 3 * call);
        EXPECT_EQ(stats.size, 0u);
    }
}

TEST(CompilerEngine, CapacityZeroDisablesRetentionNotResults)
{
    EngineOptions opts;
    opts.cache_capacity = 0;
    Engine cold(gpusim::rtx4090(), opts);
    Engine cached(gpusim::rtx4090());

    auto a = cold.compile(gemvRequest());
    auto b = cold.compile(gemvRequest());
    EXPECT_NE(a.get(), b.get()); // nothing retained
    EXPECT_DOUBLE_EQ(a->latencyUs(), b->latencyUs());
    EXPECT_EQ(a->plan().summary(), b->plan().summary());

    auto c = cached.compile(gemvRequest());
    EXPECT_DOUBLE_EQ(a->latencyUs(), c->latencyUs());

    auto stats = cold.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.size, 0u);
}

TEST(CompilerEngine, FifoEvictionIsBounded)
{
    EngineOptions opts;
    opts.cache_capacity = 2;
    Engine eng(gpusim::rtx4090(), opts);
    eng.compile(gemvRequest(OptLevel::O1));
    eng.compile(gemvRequest(OptLevel::O2));
    eng.compile(gemvRequest(OptLevel::O3)); // evicts O1
    auto stats = eng.stats();
    EXPECT_EQ(stats.size, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    // O1 was evicted: compiling it again is a miss...
    eng.compile(gemvRequest(OptLevel::O1));
    EXPECT_EQ(eng.stats().misses, 4u);
    // ...while O3 (still resident) is a hit.
    eng.compile(gemvRequest(OptLevel::O3));
    EXPECT_EQ(eng.stats().hits, 1u);
}

TEST(CompilerEngine, ConcurrentCompilesShareOneArtifact)
{
    // One compile() and one O2-O4 compileBest() per thread: each rung
    // misses once in total and hits in every other thread.
    const std::vector<OptLevel> ladder = {OptLevel::O2, OptLevel::O3,
                                          OptLevel::O4};
    constexpr int kThreads = 8;
    for (bool best : {false, true}) {
        SCOPED_TRACE(best ? "compileBest" : "compile");
        Engine eng(gpusim::rtx4090());
        std::vector<std::shared_ptr<const CompiledKernel>> seen(kThreads);
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                seen[t] = best ? eng.compileBest(gemvRequest(), ladder)
                               : eng.compile(gemvRequest());
            });
        for (auto &th : threads)
            th.join();
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[0].get(), seen[t].get());
        const std::uint64_t rungs = best ? ladder.size() : 1;
        auto stats = eng.stats();
        EXPECT_EQ(stats.misses, rungs);
        EXPECT_EQ(stats.hits, rungs * (kThreads - 1));
    }
}

TEST(CompilerEngine, ArtifactOutlivesEviction)
{
    EngineOptions opts;
    opts.cache_capacity = 1;
    Engine eng(gpusim::rtx4090(), opts);
    auto held = eng.compile(gemvRequest(OptLevel::O2));
    eng.compile(gemvRequest(OptLevel::O4)); // evicts the held artifact
    EXPECT_EQ(eng.stats().evictions, 1u);
    // The handle stays fully usable after the cache dropped it.
    EXPECT_GT(held->latencyUs(), 0.0);
    EXPECT_EQ(codegen::validateCudaSource(held->source()), "");
}

TEST(CompilerEngine, RunHooksMatchDirectKernelExecution)
{
    Rng rng(91);
    auto weight = generateLlmWeight(96, 64, rng);
    vq::VQConfig cfg = vq::gptvq2();
    cfg.num_entries = 32;
    vq::KMeansOptions fit;
    fit.max_iters = 4;
    auto qt = vq::VectorQuantizer(cfg, fit).quantize(weight);
    vq::reorderByFrequency(qt);
    Tensor<float> x({qt.cols});
    fillNormal(x, rng);

    Engine eng(gpusim::rtx4090());
    auto kernel = eng.compile(
        KernelRequest::gemvOp({1, qt.rows, qt.cols}, cfg, OptLevel::O4));
    auto via_engine = kernel->runGemv(qt, x);
    auto direct = kernels::runVqGemv(kernel->plan(), qt, x);
    EXPECT_EQ(maxAbsDiff(via_engine.output, direct.output), 0.0f);
    EXPECT_EQ(via_engine.stats.reg_hits, direct.stats.reg_hits);
    EXPECT_EQ(via_engine.stats.shared_hits, direct.stats.shared_hits);
    EXPECT_EQ(via_engine.stats.global_hits, direct.stats.global_hits);
}

TEST(CompilerEngineDeathTest, RunHookRejectsKindMismatch)
{
    Engine eng(gpusim::rtx4090());
    auto kernel = eng.compile(gemvRequest());
    vq::QuantizedTensor qt;
    Tensor<float> x({4});
    EXPECT_DEATH(kernel->runGemm(qt, x), "runGemm on a GeMV artifact");
}

TEST(CompilerEngine, SharedRegistryReturnsOneEnginePerSpec)
{
    Engine &a = Engine::shared(gpusim::rtx4090());
    Engine &b = Engine::shared(gpusim::rtx4090());
    Engine &c = Engine::shared(gpusim::teslaA40());
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);

    // Specs compare exactly on every field: a same-name spec differing
    // in any one of them gets its own engine, which reports that spec
    // (a bandwidth 0.001 GB/s off included).
    gpusim::GpuSpec nudged = gpusim::rtx4090();
    nudged.dram_bw_gbps += 0.001;
    gpusim::GpuSpec cut = gpusim::rtx4090();
    cut.dram_bw_gbps /= 2;
    gpusim::GpuSpec detuned = gpusim::rtx4090();
    detuned.dram_efficiency *= 0.5;
    gpusim::GpuSpec slow_launch = gpusim::rtx4090();
    slow_launch.launch_overhead_us += 1.0;
    for (const auto &variant : {nudged, cut, detuned, slow_launch}) {
        Engine &e = Engine::shared(variant);
        EXPECT_NE(&e, &a);
        EXPECT_EQ(&Engine::shared(variant), &e);
        EXPECT_TRUE(e.spec() == variant);
    }
    // The registry copies the spec, so the engine survives the
    // caller's spec object.
    gpusim::GpuSpec local = gpusim::rtx4090();
    local.name = "local-ephemeral";
    Engine *d = nullptr;
    {
        gpusim::GpuSpec scoped = local;
        d = &Engine::shared(scoped);
    }
    EXPECT_EQ(d->spec().name, "local-ephemeral");
}

TEST(CompilerEngine, ClearCacheDropsEntriesKeepsCounters)
{
    Engine eng(gpusim::rtx4090());
    eng.compile(gemvRequest());
    eng.compile(gemvRequest());
    eng.clearCache();
    auto stats = eng.stats();
    EXPECT_EQ(stats.size, 0u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    // Recompile after clear is a miss producing an equal artifact.
    auto again = eng.compile(gemvRequest());
    EXPECT_EQ(eng.stats().misses, 2u);
    EXPECT_GT(again->latencyUs(), 0.0);
}

} // namespace
} // namespace vqllm::compiler
