/**
 * @file
 * Serving simulator: the event loop tying workload, scheduler, KV block
 * pool, codebook residency and the iteration pricer together.
 *
 * The clock is iteration-driven: the replica (serving/sim_core.h)
 * delivers arrivals, asks the scheduler for the next iteration (mixed
 * prefill slices + decode steps under chunked prefill), prices it
 * (kernel latencies plus codebook-upload penalties for residency
 * misses), advances simulated time by that latency, and records
 * metrics.  The slice completing a (re)prefill emits one token — the
 * first token of a fresh prefill (TTFT) or, after a preemption
 * recompute, the next token (the stall lands in that TBT sample); every
 * decode step emits one token per running sequence (TBT).  The run ends
 * when every request of the finite trace has finished or been rejected
 * — reports therefore cover complete traces, never a truncated tail.
 * ServingSimulator is the one-replica driver of that loop; the fleet
 * layer (src/fleet/) drives many replicas on one timeline.
 *
 * Determinism: given one SimulatorConfig (including the workload seed)
 * two runs produce bit-identical reports.
 */
#pragma once

#include <optional>

#include "gpusim/gpu_spec.h"
#include "llm/model_config.h"
#include "llm/tensor_parallel.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/scheduler.h"

namespace vqllm::compiler {
class Engine;
}

namespace vqllm::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace vqllm::serving {

struct SimulatorConfig;

/**
 * KV bytes one device's pool gets under @p cfg: per-GPU HBM minus the
 * device's weight shard minus a 1 GB reserve for activations and
 * scratch.  Fatal (exit 1) when the TP degree does not divide the
 * model's heads or exceeds its KV heads, or when the budget is not in
 * (0, 2^64) bytes.  ServingSimulator's constructor calls it so a bad
 * config fails before any run; SimulatorCore sizes its pool with it.
 */
std::uint64_t kvCapacityPerDeviceBytes(const SimulatorConfig &cfg);

/** Full parameterization of one serving simulation. */
struct SimulatorConfig
{
    llm::QuantScheme scheme = llm::QuantScheme::VQ2;

    /**
     * KV-cache storage scheme, decoupled from the weight scheme:
     * blocks shrink by the scheme's compression factor (the pool holds
     * 1/scale more resident tokens at equal bytes) and decode
     * attention prices the matching dequant path (fused VQ
     * dequant-attention kernels for VQ4/VQ2).  Unset (the default)
     * follows the weight scheme; read it through kvScheme().
     */
    std::optional<llm::KvScheme> kv_scheme;

    const gpusim::GpuSpec *spec = nullptr;   ///< unset: gpuSpec()
    const llm::LlamaConfig *model = nullptr; ///< unset: modelConfig()

    /**
     * Compile engine pricing the iterations, one for every TP shard.
     * nullptr (default): the run constructs a private engine, so its
     * report's plan-cache counters describe exactly this run and
     * concurrent runMany sims stay independent.  Injecting a shared
     * engine keeps its kernel cache warm across runs (a later run's
     * first price of each shape is then a cache hit, not a compile);
     * the report's cache counters are the delta observed by this run,
     * which double-counts under concurrent runs sharing one engine.
     */
    compiler::Engine *engine = nullptr;

    /**
     * Tensor parallelism: degree > 1 serves the model sharded across
     * that many identical GPUs (head-sharded attention, column/row
     * -parallel linears, two ring all-reduces per layer priced into
     * every decode step and prefill chunk).  One KV block table serves
     * every device: each device stores its KV-head share of every
     * token, sized by the widest device (KvBlockPool).  Weights shard
     * by the degree, so each device's KV budget is hbm_gb minus its
     * weight shard minus the reserve.  Degree 1 is a single GPU.
     */
    llm::TpConfig tp;

    WorkloadConfig workload;
    SchedulerConfig scheduler;

    /** Per-GPU HBM capacity, GB (24 matches the RTX 4090). */
    double hbm_gb = 24.0;
    /** Tokens per KV block (paged-attention page size). */
    std::size_t kv_block_tokens = 16;
    /** Codebook-group residency slots (hit-aware LFU capacity). */
    std::size_t codebook_slots = 48;

    /**
     * Cross-request KV prefix caching: index prefix-bearing prompts at
     * block granularity, map matches in as shared ref-counted blocks
     * and prefill only the unmatched suffix (serving/prefix_cache.h).
     * Off by default.
     */
    bool prefix_cache = false;
    /** Prefix-cache capacity, cached blocks (0 = bounded only by KV
     *  pool pressure via the reclaimer). */
    std::uint64_t prefix_capacity_blocks = 0;

    /**
     * Optional trace recorder (nullptr = tracing off, the default).
     * A traced run records scheduler iterations, prefill chunks,
     * decode batches, all-reduces, codebook uploads, KV pool events,
     * preemptions and plan-cache compiles on the simulated clock; the
     * ServingReport is bit-identical with tracing on or off.  The
     * recorder must outlive the run; its clock is overwritten.
     */
    obs::TraceRecorder *trace = nullptr;

    /**
     * Optional metrics registry (nullptr = off, the default).  The run
     * streams latency/token metrics into it live and publishes every
     * component's counters (`serving.kv.*`, `serving.codebook.*`,
     * `compiler.plan_cache.*`, busy-time breakdown gauges) when the
     * run completes.
     */
    obs::MetricsRegistry *metrics = nullptr;

    // Resolved settings: every reader of the three optional members
    // above goes through these, so the defaults live in one place.
    /** `spec`, or the RTX 4090 when unset. */
    const gpusim::GpuSpec &gpuSpec() const;
    /** `model`, or Llama-7B when unset. */
    const llm::LlamaConfig &modelConfig() const;
    /** `kv_scheme`, or llm::defaultKvScheme(scheme) when unset. */
    llm::KvScheme kvScheme() const;
};

/**
 * Runs one serving simulation to completion.
 *
 * The KV pool capacity is what the scheme leaves free: HBM minus the
 * scheme's weight footprint minus the activation reserve — so a
 * quantized scheme gains twice, from smaller weights and from fewer KV
 * bytes per token.  Under TP each device pays only its weight shard,
 * so aggregate KV capacity grows superlinearly with the degree.
 */
class ServingSimulator
{
  public:
    /** Validates the config (kvCapacityPerDeviceBytes): a TP degree the
     *  model cannot shard by, or a KV budget outside (0, 2^64) bytes,
     *  is fatal here. */
    explicit ServingSimulator(const SimulatorConfig &cfg);

    /** Generate the workload from cfg and run it. */
    ServingReport run();

    /** Run an explicit trace.  Requests deliver in (arrival_us, id)
     *  order, whatever their order in @p trace. */
    ServingReport run(std::vector<Request> &trace);

    /**
     * Run independent simulations concurrently on the host runtime
     * (capacity sweeps, scheme comparisons).  Each simulation is
     * sequential and deterministic internally, so the reports are
     * bit-identical to serial back-to-back runs and returned in config
     * order.
     */
    static std::vector<ServingReport>
    runMany(const std::vector<SimulatorConfig> &configs);

  private:
    SimulatorConfig cfg_;
};

} // namespace vqllm::serving
