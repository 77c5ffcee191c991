/**
 * @file
 * Result type shared by all simulated kernels: event counters plus the
 * modeled latency breakdown.
 */
#pragma once

#include "gpusim/cost_model.h"
#include "gpusim/traffic.h"

namespace vqllm::kernels {

/** Outcome of estimating (or functionally running) one kernel. */
struct KernelResult
{
    /** Aggregated event counters for the whole grid. */
    gpusim::KernelCounters counters;
    /** Launch shape used for the latency model. */
    gpusim::LaunchConfig launch;
    /** Modeled latency decomposition. */
    gpusim::LatencyBreakdown latency;

    /** @return modeled latency in microseconds. */
    double
    us() const
    {
        return latency.total_us;
    }
};

/** Run the cost model over counters and fill in the latency field. */
inline KernelResult
finishEstimate(const gpusim::GpuSpec &spec,
               const gpusim::LaunchConfig &launch,
               const gpusim::KernelCounters &counters)
{
    KernelResult result;
    result.counters = counters;
    result.launch = launch;
    result.latency = gpusim::estimateLatency(spec, launch, counters);
    return result;
}

} // namespace vqllm::kernels
