#include "compiler/engine.h"

#include "codegen/cuda_emitter.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqllm::compiler {

// ---------------------------------------------------------------------
// KernelRequest factories

KernelRequest
KernelRequest::gemmOp(const engine::GemmShape &shape,
                      const vq::VQConfig &config, engine::OptLevel level,
                      const vq::AccessHistogram *histogram)
{
    KernelRequest r;
    r.kind = engine::OpKind::GeMM;
    r.gemm = shape;
    r.config = config;
    r.level = level;
    r.histogram = histogram;
    return r;
}

KernelRequest
KernelRequest::gemvOp(const engine::GemmShape &shape,
                      const vq::VQConfig &config, engine::OptLevel level,
                      const vq::AccessHistogram *histogram)
{
    KernelRequest r = gemmOp(shape, config, level, histogram);
    r.kind = engine::OpKind::GeMV;
    return r;
}

KernelRequest
KernelRequest::attentionOp(const engine::AttnShape &shape,
                           const vq::VQConfig &config,
                           engine::OptLevel level,
                           const vq::AccessHistogram *histogram)
{
    KernelRequest r;
    r.kind = engine::OpKind::AttentionDecode;
    r.attn = shape;
    r.config = config;
    r.level = level;
    r.histogram = histogram;
    return r;
}

// ---------------------------------------------------------------------
// CompiledKernel

const std::string &
CompiledKernel::source() const
{
    std::call_once(source_once_, [this] {
        source_ = codegen::emitCudaKernel(plan_, symbol_);
    });
    return source_;
}

kernels::FunctionalResult
CompiledKernel::runGemv(const vq::QuantizedTensor &qt,
                        const Tensor<float> &x) const
{
    vqllm_assert(plan_.kind == engine::OpKind::GeMV,
                 "runGemv on a ", engine::opKindName(plan_.kind),
                 " artifact");
    return kernels::runVqGemv(plan_, qt, x);
}

kernels::FunctionalResult
CompiledKernel::runGemm(const vq::QuantizedTensor &qt,
                        const Tensor<float> &x) const
{
    vqllm_assert(plan_.kind == engine::OpKind::GeMM,
                 "runGemm on a ", engine::opKindName(plan_.kind),
                 " artifact");
    return kernels::runVqGemm(plan_, qt, x);
}

kernels::FunctionalResult
CompiledKernel::runAttention(const vq::QuantizedTensor &qt_k,
                             const vq::QuantizedTensor &qt_v,
                             const Tensor<float> &q) const
{
    vqllm_assert(plan_.kind == engine::OpKind::AttentionDecode,
                 "runAttention on a ", engine::opKindName(plan_.kind),
                 " artifact");
    return kernels::runVqAttention(plan_, qt_k, qt_v, q);
}

// ---------------------------------------------------------------------
// Engine

Engine::Engine(const gpusim::GpuSpec &spec, const EngineOptions &options)
    : spec_(spec), options_(options)
{
}

KernelKey
Engine::cacheKey(const KernelRequest &request)
{
    KernelKey key;
    key.kind = request.kind;
    key.level = request.level;
    if (request.kind == engine::OpKind::AttentionDecode) {
        // kvHeads() folds the kv_heads==0 MHA default onto its
        // explicit spelling so the two cannot produce distinct keys.
        const auto &a = request.attn;
        key.shape = {a.batch, a.heads, a.seq_len, a.head_dim,
                     a.kvHeads()};
    } else {
        key.shape = {request.gemm.m, request.gemm.n, request.gemm.k, 0,
                     0};
    }
    key.config = request.config;
    if (request.histogram != nullptr) {
        key.histogram_entries = request.histogram->size();
        key.histogram_digest = request.histogram->digest();
    }
    return key;
}

std::shared_ptr<const CompiledKernel>
Engine::compileUncached(const KernelRequest &request,
                        engine::OptLevel level) const
{
    engine::PlanInputs in;
    in.spec = &spec_;
    in.histogram = request.histogram;
    in.shuffle_threshold = options_.shuffle_threshold;

    auto artifact = std::shared_ptr<CompiledKernel>(new CompiledKernel);
    if (request.kind == engine::OpKind::AttentionDecode) {
        artifact->plan_ = engine::planAttentionKernel(
            request.attn, request.config, level, in);
        artifact->estimate_ = kernels::estimateVqAttentionKernel(
            spec_, artifact->plan_, request.histogram);
    } else {
        artifact->plan_ = engine::planWeightKernel(
            request.kind, request.gemm, request.config, level, in);
        artifact->estimate_ = kernels::estimateVqWeightKernel(
            spec_, artifact->plan_, request.histogram);
    }
    artifact->symbol_ = codegen::kernelSymbolName(artifact->plan_);
    return artifact;
}

std::shared_ptr<const CompiledKernel>
Engine::findOrCompileLocked(const KernelKey &key,
                            const KernelRequest &request)
{
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++stats_.hits;
        return it->second;
    }
    ++stats_.misses;
    if (trace_)
        trace_->instant(
            "plan_compile", "compiler", 0, trace_->now(),
            {{"cache_size", static_cast<double>(cache_.size())}});
    std::shared_ptr<const CompiledKernel> artifact =
        compileUncached(request, key.level);
    cache_.emplace(key, artifact);
    insertion_order_.push_back(key);
    while (cache_.size() > options_.cache_capacity) {
        // FIFO eviction in insertion order: deterministic regardless
        // of thread interleavings the lock already serializes.
        cache_.erase(insertion_order_.front());
        insertion_order_.erase(insertion_order_.begin());
        ++stats_.evictions;
    }
    stats_.size = cache_.size();
    return artifact;
}

std::shared_ptr<const CompiledKernel>
Engine::compile(const KernelRequest &request)
{
    KernelKey key = cacheKey(request);

    // Planning runs under the cache lock: it is host-side microsecond
    // work, and serializing it guarantees concurrent compiles of one
    // request observe a single artifact (single-flight without a
    // per-key future).
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCompileLocked(key, request);
}

std::shared_ptr<const CompiledKernel>
Engine::compileBest(const KernelRequest &request,
                    const std::vector<engine::OptLevel> &levels)
{
    vqllm_assert(!levels.empty(), "compileBest needs at least one level");
    // The rungs differ only in their level: build the key once and
    // take the lock once for the whole ladder.
    KernelKey key = cacheKey(request);
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<const CompiledKernel> best;
    for (engine::OptLevel level : levels) {
        key.level = level;
        auto k = findOrCompileLocked(key, request);
        if (!best || k->latencyUs() < best->latencyUs())
            best = std::move(k);
    }
    return best;
}

CacheStats
Engine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
Engine::clearCache()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
    insertion_order_.clear();
    stats_.size = 0;
}

void
Engine::setTrace(obs::TraceRecorder *trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    trace_ = trace;
}

void
Engine::exportMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix) const
{
    CacheStats s = stats();
    registry.counter(prefix + ".hits").add(s.hits);
    registry.counter(prefix + ".misses").add(s.misses);
    registry.counter(prefix + ".evictions").add(s.evictions);
    registry.gauge(prefix + ".size").set(static_cast<double>(s.size));
    registry.gauge(prefix + ".hit_rate").set(s.hitRate());
}

Engine &
Engine::shared(const gpusim::GpuSpec &spec)
{
    static std::mutex registry_mutex;
    static std::map<gpusim::GpuSpec, std::unique_ptr<Engine>> registry;

    std::lock_guard<std::mutex> lock(registry_mutex);
    auto &slot = registry[spec];
    if (!slot)
        slot = std::make_unique<Engine>(spec);
    return *slot;
}

} // namespace vqllm::compiler
