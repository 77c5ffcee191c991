/**
 * @file
 * CUDA source emission: the final stage of the code-generation framework
 * (paper Sec. IV: "a set of CUDA templates ... to generate a specific
 * VQ-augmented compute kernel, we supply the configuration of the
 * algorithm and target GPU to the corresponding compute kernel
 * template").
 *
 * Given a fully-resolved KernelPlan, the emitter instantiates the CUDA
 * C++ kernel text: codebook-cache device functions with the plan's
 * register/shared boundaries baked in, the index-unpacking logic for the
 * config's bit width (including unaligned 12-bit and lattice decodes),
 * the xor-shuffle exchange schedule of the thread mapping, the
 * codebook-centric grid mapping, and the global-reduction epilogue.
 *
 * This host environment has no nvcc, so emitted sources are validated
 * structurally (see tests) rather than compiled; emission itself is pure
 * C++ string construction, exactly the paper's host-side layer, appended
 * through one TextBuilder (common/text_builder.h) per source.
 */
#pragma once

#include <string>
#include <string_view>

#include "engine/kernel_plan.h"

namespace vqllm::codegen {

/** Emit the complete CUDA translation unit for a kernel plan: the
 *  kernel under kernelSymbolName(plan), the reduction epilogue kernel
 *  when the plan needs one, and a host-side launcher. */
std::string emitCudaKernel(const engine::KernelPlan &plan);

/** emitCudaKernel(plan) for a caller that already holds
 *  `symbol == kernelSymbolName(plan)` (the compiler's artifacts do). */
std::string emitCudaKernel(const engine::KernelPlan &plan,
                           std::string_view symbol);

/** @return the kernel symbol name the emitter derives for a plan. */
std::string kernelSymbolName(const engine::KernelPlan &plan);

/**
 * Structural validation of emitted source: balanced braces/parens,
 * presence of a __global__ entry, and no unresolved template
 * placeholders.  @return empty string if valid, else a diagnostic.
 */
std::string validateCudaSource(const std::string &source);

} // namespace vqllm::codegen
