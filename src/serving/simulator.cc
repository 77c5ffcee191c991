#include "serving/simulator.h"

#include <limits>

#include "common/logging.h"
#include "common/parallel.h"
#include "serving/sim_core.h"

namespace vqllm::serving {

namespace {

/** HBM each device holds back for activations and scratch, GB. */
constexpr double kHbmReserveGb = 1.0;

} // namespace

const gpusim::GpuSpec &
SimulatorConfig::gpuSpec() const
{
    return spec != nullptr ? *spec : gpusim::rtx4090();
}

const llm::LlamaConfig &
SimulatorConfig::modelConfig() const
{
    return model != nullptr ? *model : llm::llama7b();
}

llm::KvScheme
SimulatorConfig::kvScheme() const
{
    return kv_scheme.value_or(llm::defaultKvScheme(scheme));
}

std::uint64_t
kvCapacityPerDeviceBytes(const SimulatorConfig &cfg)
{
    const llm::LlamaConfig &model = cfg.modelConfig();
    // The config arrives from outside the library (CLI flags, caller
    // structs), so a bad one is a user error, not an internal bug.
    if (cfg.tp.degree < 1 || model.heads % cfg.tp.degree != 0)
        vqllm_fatal("TP degree ", cfg.tp.degree, " must divide ",
                    model.name, "'s ", model.heads, " heads evenly (",
                    model.kvHeads(), " KV heads)");
    const auto degree = static_cast<std::size_t>(cfg.tp.degree);
    if (degree > model.kvHeads())
        vqllm_fatal("TP degree ", degree, " exceeds ", model.name, "'s ",
                    model.kvHeads(), " KV heads (", model.heads,
                    " heads)");
    // Each device holds 1/degree of the weights; its pool gets what
    // that shard leaves free of the per-GPU HBM.
    double weight_bytes = static_cast<double>(model.decoderParams()) *
                          llm::schemeWeightBytesPerParam(cfg.scheme) /
                          static_cast<double>(degree);
    double free_bytes =
        cfg.hbm_gb * 1e9 - weight_bytes - kHbmReserveGb * 1e9;
    // Negated so NaN fails too; 2^64 and above would overflow the
    // integer conversion (undefined behaviour).
    if (!(free_bytes > 0 && free_bytes < 0x1p64))
        vqllm_fatal("per-device KV budget must be > 0 and < 2^64 bytes: ",
                    cfg.hbm_gb, " GB HBM - ", weight_bytes / 1e9,
                    " GB weight shard at TP degree ", cfg.tp.degree,
                    " - ", kHbmReserveGb, " GB reserve = ",
                    free_bytes / 1e9, " GB");
    return static_cast<std::uint64_t>(free_bytes);
}

ServingSimulator::ServingSimulator(const SimulatorConfig &cfg) : cfg_(cfg)
{
    // A bad TP degree or KV budget is fatal here, before any run.
    kvCapacityPerDeviceBytes(cfg_);
}

ServingReport
ServingSimulator::run()
{
    auto trace = generateWorkload(cfg_.workload);
    return run(trace);
}

std::vector<ServingReport>
ServingSimulator::runMany(const std::vector<SimulatorConfig> &configs)
{
    std::vector<ServingReport> reports(configs.size());
    par::parallelFor(configs.size(), 1, [&](const par::ChunkRange &c) {
        for (std::size_t i = c.begin; i < c.end; ++i)
            reports[i] = ServingSimulator(configs[i]).run();
    });
    return reports;
}

ServingReport
ServingSimulator::run(std::vector<Request> &trace)
{
    // One replica on its own: the core delivers arrivals, fast-forwards
    // idle gaps and steps until every request has finished or been
    // rejected.
    SimulatorCore core(cfg_);
    for (Request &r : trace)
        core.enqueue(&r);
    while (core.nextEventUs() < std::numeric_limits<double>::infinity())
        core.advance();
    return core.finalize();
}

} // namespace vqllm::serving
