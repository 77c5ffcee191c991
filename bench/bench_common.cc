#include "bench_common.h"

namespace vqllm::bench {

vq::AccessHistogram
fitSampleHistogram(const vq::VQConfig &cfg, bool kv)
{
    // Sample size balances fidelity and bench startup time; larger
    // codebooks need more sampled sub-vectors for stable skew
    // statistics (Fig. 8, Tbl. V).
    Rng rng(0xC0FFEE);
    ClusteredDataSpec spec;
    spec.num_clusters = kv ? 32 : 512;
    spec.popularity_alpha = 0.3;
    if (!kv && cfg.storedEntries() >= 2048) {
        // Large codebooks: the mega-hot entries come from recurring
        // template sub-vectors (Fig. 8 / Tbl. V's 15-30 band).
        spec.duplicate_pool = 22;
        spec.duplicate_fraction = 0.16;
    }
    // One sub-vector per sampled row so duplicate templates map to
    // single codebook entries.
    std::size_t rows = cfg.storedEntries() >= 2048 ? 8192
                       : kv                        ? 4096
                                                   : 2048;
    std::size_t cols = cfg.vector_size;
    Tensor<float> data = kv ? generateKvCache(1, rows, cols, rng)
                            : generateClustered(rows, cols, spec, rng);
    if (kv)
        data.reshape({rows, cols});

    // Train a single shared codebook for the histogram regardless of
    // the config's scope: per-book access statistics are what the cache
    // plan consumes.
    vq::VQConfig book_cfg = cfg;
    book_cfg.scope = vq::CodebookScope::PerTensor;
    vq::KMeansOptions opts;
    opts.max_iters = 4;
    opts.sample_limit = 1024;
    auto qt = vq::VectorQuantizer(book_cfg, opts).quantize(data);
    return std::move(vq::profileAccesses(qt).histograms[0]);
}

const vq::AccessHistogram &
sampleHistogram(const vq::VQConfig &cfg, bool kv)
{
    static std::map<std::string, vq::AccessHistogram> cache;
    std::string key = cfg.name + (kv ? "/kv" : "/w");
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    return cache.emplace(key, fitSampleHistogram(cfg, kv)).first->second;
}

std::string
formatRatio(double value, double baseline)
{
    return formatDouble(baseline > 0 ? value / baseline : 0.0, 2) + "x";
}

kernels::KernelResult
attnAtLevel(const gpusim::GpuSpec &spec, const engine::AttnShape &shape,
            const vq::VQConfig &cfg, engine::OptLevel level)
{
    const auto &hist = sampleHistogram(cfg, /*kv=*/true);
    return engineFor(spec)
        .compile(compiler::KernelRequest::attentionOp(shape, cfg, level,
                                                      &hist))
        ->estimate();
}

kernels::KernelResult
weightAtLevel(const gpusim::GpuSpec &spec, engine::OpKind kind,
              const engine::GemmShape &shape, const vq::VQConfig &cfg,
              engine::OptLevel level)
{
    const auto &hist = sampleHistogram(cfg, /*kv=*/false);
    auto request =
        kind == engine::OpKind::GeMM
            ? compiler::KernelRequest::gemmOp(shape, cfg, level, &hist)
            : compiler::KernelRequest::gemvOp(shape, cfg, level, &hist);
    return engineFor(spec).compile(request)->estimate();
}

/** Levels the adaptive selection searches (O1..O4). */
static const std::vector<engine::OptLevel> kBestLevels = {
    engine::OptLevel::O1, engine::OptLevel::O2, engine::OptLevel::O3,
    engine::OptLevel::O4};

kernels::KernelResult
bestAttn(const gpusim::GpuSpec &spec, const engine::AttnShape &shape,
         const vq::VQConfig &cfg)
{
    const auto &hist = sampleHistogram(cfg, /*kv=*/true);
    return engineFor(spec)
        .compileBest(compiler::KernelRequest::attentionOp(
                         shape, cfg, engine::OptLevel::O4, &hist),
                     kBestLevels)
        ->estimate();
}

kernels::KernelResult
bestWeight(const gpusim::GpuSpec &spec, engine::OpKind kind,
           const engine::GemmShape &shape, const vq::VQConfig &cfg)
{
    const auto &hist = sampleHistogram(cfg, /*kv=*/false);
    auto request = kind == engine::OpKind::GeMM
                       ? compiler::KernelRequest::gemmOp(
                             shape, cfg, engine::OptLevel::O4, &hist)
                       : compiler::KernelRequest::gemvOp(
                             shape, cfg, engine::OptLevel::O4, &hist);
    return engineFor(spec).compileBest(request, kBestLevels)->estimate();
}

double
maxQpsUnderSlo(const std::function<bool(double)> &meets)
{
    double lo = 0.25, hi = 64.0;
    if (!meets(lo))
        return 0.0;
    while (hi - lo > 0.25) {
        double mid = 0.5 * (lo + hi);
        if (meets(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace vqllm::bench
