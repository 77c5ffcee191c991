/**
 * @file
 * compiler::Engine — the unified entry point of the code-generation
 * framework (paper Sec. IV): one call turns a kernel request into a
 * ready artifact.
 *
 * The paper's framework is "supply the configuration of the algorithm
 * and target GPU to the corresponding compute kernel template" and get
 * a kernel back.  Every stage of that pipeline exists in this repo —
 * planning (engine::planWeightKernel / planAttentionKernel, Alg. 2),
 * costing (gpusim::estimateLatency via kernels::estimateVq*Kernel),
 * emission (codegen::emitCudaKernel) and host execution
 * (kernels::runVq*) — and this module is the facade that stitches them
 * together:
 *
 *   compiler::Engine engine(gpusim::rtx4090());
 *   auto kernel = engine.compile(
 *       compiler::KernelRequest::gemv({1, 4096, 4096}, vq::gptvq2(),
 *                                     engine::OptLevel::O4));
 *   kernel->latencyUs();   // cost-model estimate, computed once
 *   kernel->source();      // CUDA source, emitted lazily and memoized
 *   kernel->runGemv(...);  // functional host execution
 *
 * ## Artifact lifetime and ownership
 *
 * compile() returns `std::shared_ptr<const CompiledKernel>`: artifacts
 * are immutable and shared.  The cache holds one reference; callers may
 * keep theirs for as long as they like — eviction never invalidates a
 * handle, it only drops the cache's reference.  A CompiledKernel never
 * references the Engine (or the caller's GpuSpec/histogram) after
 * construction, so it outlives both safely.
 *
 * ## Memoization
 *
 * Behind compile() sits a thread-safe memoizing cache keyed by a
 * KernelKey (see cacheKey()): a plain struct of the request fields the
 * plan depends on, ordered member-wise, so a hit builds no string and
 * hashes nothing (the histogram carries its digest).  The GPU spec
 * and planning policy are not in the key: each Engine owns one
 * immutable copy of both, and its cache dies with it.  Planning and
 * costing run at most once per distinct request; concurrent compiles
 * of the same request return the *same* artifact pointer.
 * compileBest() builds one key and takes the lock once for its whole
 * ladder.  Hit/miss/eviction counters are exposed
 * via stats() for the benches, and the cache iterates in deterministic
 * (sorted-key) order so cached and uncached runs stay bit-identical at
 * any VQLLM_THREADS setting.  Capacity 0 disables retention: every
 * compile is a cold miss followed by an immediate eviction — the
 * reference configuration for cache-parity tests.
 *
 * See DESIGN.md §7 for the pipeline and cache-key canonicalization
 * contract.
 */
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/kernel_plan.h"
#include "engine/template_engine.h"
#include "gpusim/gpu_spec.h"
#include "kernels/vq_kernels.h"

namespace vqllm::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace vqllm::compiler {

/** Engine-wide planning policy (fixed per Engine). */
struct EngineOptions
{
    /** Fusion threshold: max shuffles for register fusion. */
    int shuffle_threshold = 5;
    /**
     * Maximum retained artifacts.  0 disables retention (every compile
     * is a miss and an immediate eviction) — results are bit-identical
     * either way, only the work is repeated.
     */
    std::size_t cache_capacity = 4096;
};

/**
 * One kernel compilation request: the computation (tagged by
 * engine::OpKind with the matching shape member), the VQ algorithm,
 * the optimization-ladder rung, and an optional offline access
 * histogram steering the cache boundaries and tier hit fractions.
 *
 * The histogram pointer must stay valid for the duration of the
 * compile() call only; the artifact does not retain it.
 */
struct KernelRequest
{
    engine::OpKind kind = engine::OpKind::GeMV;
    /** Problem shape; gemm is read for GeMM/GeMV, attn for attention. */
    engine::GemmShape gemm;
    engine::AttnShape attn;
    vq::VQConfig config;
    engine::OptLevel level = engine::OptLevel::O4;
    const vq::AccessHistogram *histogram = nullptr;

    /** @return a weight-quantized GeMM request. */
    static KernelRequest gemmOp(const engine::GemmShape &shape,
                                const vq::VQConfig &config,
                                engine::OptLevel level,
                                const vq::AccessHistogram *histogram =
                                    nullptr);

    /** @return a weight-quantized GeMV request. */
    static KernelRequest gemvOp(const engine::GemmShape &shape,
                                const vq::VQConfig &config,
                                engine::OptLevel level,
                                const vq::AccessHistogram *histogram =
                                    nullptr);

    /** @return a KV-cache-quantized decode-attention request. */
    static KernelRequest attentionOp(const engine::AttnShape &shape,
                                     const vq::VQConfig &config,
                                     engine::OptLevel level,
                                     const vq::AccessHistogram *histogram =
                                         nullptr);

    /** @return the same request at a different ladder rung. */
    KernelRequest
    atLevel(engine::OptLevel l) const
    {
        KernelRequest r = *this;
        r.level = l;
        return r;
    }
};

/**
 * Immutable compiled-kernel artifact: the resolved plan, its cost
 * estimate (computed once at compile time), the emitted CUDA source
 * (lazy, memoized) and host execution hooks.
 */
class CompiledKernel
{
  public:
    /** @return the fully-resolved kernel plan (Alg. 2 output). */
    const engine::KernelPlan &plan() const { return plan_; }

    /** @return the cost-model estimate computed at compile time. */
    const kernels::KernelResult &estimate() const { return estimate_; }

    /** @return modeled latency, microseconds. */
    double latencyUs() const { return estimate_.latency.total_us; }

    /** @return the emitted kernel symbol name (unique per plan). */
    const std::string &symbolName() const { return symbol_; }

    /**
     * @return the complete CUDA translation unit for the plan.
     * Emission runs on first call and is memoized; concurrent callers
     * block on the same one-time emission.
     */
    const std::string &source() const;

    /** Functionally execute the kernel as a GeMV (kind must match). */
    kernels::FunctionalResult runGemv(const vq::QuantizedTensor &qt,
                                      const Tensor<float> &x) const;

    /** Functionally execute the kernel as a GeMM (kind must match). */
    kernels::FunctionalResult runGemm(const vq::QuantizedTensor &qt,
                                      const Tensor<float> &x) const;

    /** Functionally execute decode attention (kind must match). */
    kernels::FunctionalResult
    runAttention(const vq::QuantizedTensor &qt_k,
                 const vq::QuantizedTensor &qt_v,
                 const Tensor<float> &q) const;

  private:
    friend class Engine;
    CompiledKernel() = default;

    engine::KernelPlan plan_;
    kernels::KernelResult estimate_;
    std::string symbol_;

    mutable std::once_flag source_once_;
    mutable std::string source_;
};

/**
 * Canonical cache key of a KernelRequest (Engine::cacheKey()): every
 * request field a compiled plan depends on, and nothing else.  Keys
 * order member-wise, so the cache needs no hash function.
 */
struct KernelKey
{
    engine::OpKind kind = engine::OpKind::GeMV;
    engine::OptLevel level = engine::OptLevel::O4;
    /**
     * Shape of the request's kind: {m, n, k, 0, 0} for GeMM/GeMV and
     * {batch, heads, seq_len, head_dim, kvHeads()} for attention.
     */
    std::array<std::size_t, 5> shape{};
    /** The request's vq::VQConfig, all of it. */
    vq::VQConfig config;
    /** Histogram entry count; 0 without a histogram. */
    std::size_t histogram_entries = 0;
    /** vq::AccessHistogram::digest() of the histogram; 0 exactly when
     *  it is absent (a digest is never 0). */
    std::uint64_t histogram_digest = 0;

    auto operator<=>(const KernelKey &) const = default;
};

/** Cache observability counters (monotonic over an Engine's life). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Artifacts currently retained. */
    std::size_t size = 0;

    std::uint64_t
    lookups() const
    {
        return hits + misses;
    }

    /** @return hits / lookups ([0,1]; 1 when no lookup happened). */
    double
    hitRate() const
    {
        return lookups() > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(lookups())
                   : 1.0;
    }
};

/**
 * The compile facade: plan → cost → emit → execute behind one entry
 * point with a memoizing kernel cache.
 *
 * An Engine is constructed from a target GPU and a planning policy and
 * owns a private copy of both, so it may outlive the caller's GpuSpec.
 * All methods are thread-safe.
 */
class Engine
{
  public:
    explicit Engine(const gpusim::GpuSpec &spec,
                    const EngineOptions &options = EngineOptions{});

    /**
     * Compile a kernel request into a shared immutable artifact.
     *
     * Identical requests (same canonical key) return the same pointer
     * while the artifact is retained; a re-compile after eviction
     * produces an equal but distinct artifact.
     */
    std::shared_ptr<const CompiledKernel>
    compile(const KernelRequest &request);

    /**
     * Compile `request` at each of `levels` and return the artifact
     * with the lowest modeled latency (ties break toward the earlier
     * level in `levels`).  The adaptive best-of-ladder selection the
     * end-to-end model and the benches use.  Each level counts as one
     * hit or miss; the ladder holds the cache lock throughout.
     */
    std::shared_ptr<const CompiledKernel>
    compileBest(const KernelRequest &request,
                const std::vector<engine::OptLevel> &levels);

    /**
     * Canonical cache key of a request.
     *
     * The key normalizes the shape (only the members of the request's
     * kind contribute; attention kv_heads resolves the MHA default) and
     * copies every VQConfig field, the level, and the histogram's entry
     * count and content digest (derived when the histogram was built)
     * — so requests differing in any plan-affecting input never
     * collide, while equal histograms at different addresses do.  Spec and policy are engine constants
     * and stay out of the key.
     */
    static KernelKey cacheKey(const KernelRequest &request);

    /** @return a snapshot of the cache counters. */
    CacheStats stats() const;

    /** Drop all retained artifacts (counters keep accumulating). */
    void clearCache();

    /**
     * Attach a trace recorder (nullptr = off, the default): every cache
     * miss records a "plan_compile" instant at the recorder's simulated
     * clock.  Traced runs must not compile concurrently on this engine
     * — the simulator attaches for its sequential run and detaches
     * before returning.
     */
    void setTrace(obs::TraceRecorder *trace);

    /** Publish the cache counters under `<prefix>.`-qualified names. */
    void exportMetrics(obs::MetricsRegistry &registry,
                       const std::string &prefix) const;

    /** @return the engine's private copy of the target GPU. */
    const gpusim::GpuSpec &spec() const { return spec_; }

    const EngineOptions &options() const { return options_; }

    /**
     * Process-wide shared engine for a GPU spec (keyed by the whole
     * spec, every field compared exactly; created on first use, never
     * destroyed).  The convenience registry behind the spec-level llm::
     * helpers; components wanting isolated caches construct their own
     * Engine.
     */
    static Engine &shared(const gpusim::GpuSpec &spec);

  private:
    /** Plan and cost `request` at `level` (the request's own level is
     *  ignored). */
    std::shared_ptr<const CompiledKernel>
    compileUncached(const KernelRequest &request,
                    engine::OptLevel level) const;

    /** The cached artifact of `key`, compiling `request` at key.level
     *  on a miss.  The caller holds mutex_. */
    std::shared_ptr<const CompiledKernel>
    findOrCompileLocked(const KernelKey &key,
                        const KernelRequest &request);

    gpusim::GpuSpec spec_;
    EngineOptions options_;

    mutable std::mutex mutex_;
    /** Keyed artifacts; std::map for deterministic iteration order. */
    std::map<KernelKey, std::shared_ptr<const CompiledKernel>> cache_;
    /** Insertion order driving FIFO eviction (deterministic). */
    std::vector<KernelKey> insertion_order_;
    CacheStats stats_;
    obs::TraceRecorder *trace_ = nullptr;
};

} // namespace vqllm::compiler
