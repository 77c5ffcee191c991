/**
 * @file
 * Host execution throughput: wall-clock of the functional VQ kernels
 * and the codebook fitter, serial vs parallel, at several problem
 * sizes.
 *
 * This is the *host* performance trajectory (not the simulated-GPU cost
 * model): the functional GEMM/attention runners and the k-means fitter
 * are the paths that bound how large a sweep the benches and the
 * serving simulator can afford.  Results go to stdout and to
 * `BENCH_host.json` (rows/s, tokens/s, fit ms) so future PRs can
 * regress against them.
 *
 * The serial baseline pins the runtime to one thread via
 * par::setThreads(1); the parallel run reverts to the environment
 * (VQLLM_THREADS or hardware concurrency).  Outputs are bit-identical
 * either way — only the wall-clock may differ.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "vq/kmeans.h"
#include "vq/quantizer.h"

using namespace vqllm;

namespace {

using Clock = std::chrono::steady_clock;

/** Best-of-`reps` wall-clock milliseconds of fn(). */
template <typename Fn>
double
bestMs(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        double ms = std::chrono::duration<double, std::milli>(t1 - t0)
                        .count();
        best = std::min(best, ms);
    }
    return best;
}

struct WorkloadResult
{
    std::string name;
    double serial_ms = 0;
    double parallel_ms = 0;
    /** Primary throughput metric and its unit (rows/s, tokens/s...). */
    double rate = 0;
    std::string rate_unit;

    double
    speedup() const
    {
        return parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
    }
};

/**
 * Run fn serial and parallel, deriving the rate from `work` items.
 * Reps alternate serial/parallel so external noise (CPU quota
 * throttling, frequency ramps) hits both measurements symmetrically.
 */
template <typename Fn>
WorkloadResult
measure(const std::string &name, double work, const char *unit, int reps,
        Fn &&fn)
{
    WorkloadResult w;
    w.name = name;
    w.rate_unit = unit;
    w.serial_ms = 1e300;
    w.parallel_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
        par::setThreads(1);
        w.serial_ms = std::min(w.serial_ms, bestMs(1, fn));
        par::setThreads(0); // revert to VQLLM_THREADS / hardware
        w.parallel_ms = std::min(w.parallel_ms, bestMs(1, fn));
    }
    w.rate = work / (w.parallel_ms / 1e3);
    return w;
}

vq::QuantizedTensor
makeWeight(std::size_t n, std::size_t k, std::uint64_t seed)
{
    vq::VQConfig cfg = vq::gptvq2();
    cfg.scope = vq::CodebookScope::PerTensor;
    cfg.num_entries = 64;
    Rng rng(seed);
    auto w = generateLlmWeight(n, k, rng);
    vq::KMeansOptions opts;
    opts.max_iters = 4;
    auto qt = vq::VectorQuantizer(cfg, opts).quantize(w);
    vq::reorderByFrequency(qt);
    return qt;
}

} // namespace

int
main()
{
    par::setThreads(0);
    const int threads = par::maxThreads();
    std::printf("Host throughput: %d thread(s), SIMD ISA %s\n\n", threads,
                simd::activeIsa());

    std::vector<WorkloadResult> results;

    // -------------------------------------------------- functional GEMM
    for (std::size_t n : {256, 1024}) {
        const std::size_t k = 512, m = 16;
        auto qt = makeWeight(n, k, 11);
        Rng rng(13);
        Tensor<float> x({m, k});
        fillNormal(x, rng);
        auto kernel = bench::engineFor(gpusim::rtx4090())
                          .compile(compiler::KernelRequest::gemmOp(
                              {m, n, k}, qt.config,
                              engine::OptLevel::O2));
        results.push_back(measure(
            "vq_gemm_n" + std::to_string(n) + "_k512_m16",
            static_cast<double>(n), "rows/s", 3,
            [&] { kernel->runGemm(qt, x); }));
    }

    // --------------------------------------------- functional attention
    {
        const std::size_t tokens = 512, heads = 8, channels = 64;
        vq::VQConfig cfg = vq::cq2();
        cfg.num_entries = 64;
        Rng rng(17);
        Tensor<float> kv({tokens, heads * channels});
        fillNormal(kv, rng);
        vq::KMeansOptions opts;
        opts.max_iters = 4;
        auto qt_k = vq::VectorQuantizer(cfg, opts).quantize(kv);
        auto qt_v = vq::VectorQuantizer(cfg, opts).quantize(kv);
        vq::reorderByFrequency(qt_k);
        vq::reorderByFrequency(qt_v);
        Tensor<float> q({heads, channels});
        fillNormal(q, rng);
        auto kernel = bench::engineFor(gpusim::rtx4090())
                          .compile(compiler::KernelRequest::attentionOp(
                              {1, heads, tokens, channels}, cfg,
                              engine::OptLevel::O2));
        results.push_back(measure(
            "vq_attention_t512_h8_c64", static_cast<double>(tokens),
            "tokens/s", 3,
            [&] { kernel->runAttention(qt_k, qt_v, q); }));
    }

    // ------------------------------------------------- k-means fitting
    for (std::size_t n : {8192, 16384}) {
        const std::size_t dim = 8, k = 256;
        Rng rng(19);
        auto data = generateClustered(n, dim, ClusteredDataSpec{}, rng);
        vq::KMeansOptions opts;
        opts.max_iters = 8;
        results.push_back(measure(
            "kmeans_n" + std::to_string(n) + "_d8_k256", 1.0, "fits/s",
            3, [&] { vq::kMeans(data, k, opts); }));
    }

    // ------------------------------------------ access-histogram fits
    // The offline fits behind the codebook-cache plans, as
    // bench::sampleHistogram makes them (without its memo): AQLM-3 has
    // more centroids than sampled rows, QuiP#-4 is the lattice encode.
    for (const auto &[cfg, slug] :
         {std::pair{vq::aqlm3(), "aqlm3"}, std::pair{vq::quip4(), "quip4"}})
        results.push_back(measure(
            std::string("histogram_fit_") + slug, 1.0, "fits/s", 3,
            [&] { bench::fitSampleHistogram(cfg); }));

    // ---------------------------------------------- full quantizer fit
    {
        const std::size_t rows = 512, cols = 512;
        Rng rng(23);
        auto w = generateLlmWeight(rows, cols, rng);
        vq::VQConfig cfg = vq::cq2(); // per-channel-group: parallel units
        cfg.num_entries = 64;
        vq::KMeansOptions opts;
        opts.max_iters = 6;
        results.push_back(measure(
            "quantize_512x512_cq2", 1.0, "fits/s", 3,
            [&] { vq::VectorQuantizer(cfg, opts).quantize(w); }));
    }

    // ------------------------------------------- plan-cache pricing
    // The compile facade's memoizing cache: wall-clock of pricing the
    // same decode shapes cold (capacity 0 retains nothing, every
    // compile re-plans) vs through the cache.
    double plan_cold_ms = 0, plan_cached_ms = 0, plan_hit_rate = 0;
    {
        auto pricingSweep = [](compiler::Engine &eng) {
            const auto &hist = bench::sampleHistogram(vq::gptvq2());
            for (int iter = 0; iter < 32; ++iter)
                for (std::size_t batch : {1, 8, 16})
                    for (auto level :
                         {engine::OptLevel::O2, engine::OptLevel::O3,
                          engine::OptLevel::O4})
                        eng.compile(compiler::KernelRequest::gemvOp(
                            {batch, 4096, 4096}, vq::gptvq2(), level,
                            &hist));
        };
        compiler::EngineOptions cold_opts;
        cold_opts.cache_capacity = 0;
        compiler::Engine cold(gpusim::rtx4090(), cold_opts);
        compiler::Engine cached(gpusim::rtx4090());
        // Hit rate of ONE cold-to-steady sweep (the timing reps below
        // would inflate it by re-hitting the already-warm cache).
        pricingSweep(cached);
        plan_hit_rate = cached.stats().hitRate();
        plan_cold_ms = bestMs(3, [&] { pricingSweep(cold); });
        plan_cached_ms = bestMs(3, [&] { pricingSweep(cached); });
        std::printf("plan cache: cold pricing %.1f ms, cached %.2f ms "
                    "(%.1fx), hit rate %.1f%% (%llu evictions cold)\n\n",
                    plan_cold_ms, plan_cached_ms,
                    plan_cached_ms > 0 ? plan_cold_ms / plan_cached_ms
                                       : 0.0,
                    plan_hit_rate * 100,
                    static_cast<unsigned long long>(
                        cold.stats().evictions));
    }

    TextTable table({"workload", "serial ms", "parallel ms", "speedup",
                     "rate"});
    for (const auto &w : results)
        table.addRow({w.name, formatDouble(w.serial_ms, 1),
                      formatDouble(w.parallel_ms, 1),
                      formatDouble(w.speedup(), 2) + "x",
                      formatDouble(w.rate, 0) + " " + w.rate_unit});
    std::printf("%s\n", table.render().c_str());

    std::FILE *f = std::fopen("BENCH_host.json", "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n  \"threads\": %d,\n  \"isa\": \"%s\",\n"
                        "  \"workloads\": [\n",
                     threads, simd::activeIsa());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &w = results[i];
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"serial_ms\": %.3f, "
                "\"parallel_ms\": %.3f, \"speedup\": %.3f, "
                "\"rate\": %.1f, \"rate_unit\": \"%s\"}%s\n",
                w.name.c_str(), w.serial_ms, w.parallel_ms, w.speedup(),
                w.rate, w.rate_unit.c_str(),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n  \"plan_cache\": {\"cold_ms\": %.3f, "
                     "\"cached_ms\": %.3f, \"speedup\": %.2f, "
                     "\"hit_rate\": %.4f}\n}\n",
                     plan_cold_ms, plan_cached_ms,
                     plan_cached_ms > 0 ? plan_cold_ms / plan_cached_ms
                                        : 0.0,
                     plan_hit_rate);
        std::fclose(f);
        std::printf("wrote BENCH_host.json\n");
    }
    return 0;
}
