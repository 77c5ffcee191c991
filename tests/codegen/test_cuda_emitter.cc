/**
 * @file
 * Tests for the CUDA source emitter: structural validity, parameter
 * embedding, and per-config code paths (unaligned unpack, lattice
 * decode, shuffle schedules, reduction epilogues).
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "codegen/cuda_emitter.h"
#include "engine/template_engine.h"

namespace vqllm::codegen {
namespace {

using engine::OpKind;
using engine::OptLevel;

engine::PlanInputs
inputs()
{
    engine::PlanInputs in;
    in.spec = &gpusim::rtx4090();
    return in;
}

engine::KernelPlan
attnPlan(const vq::VQConfig &cfg, OptLevel level)
{
    return engine::planAttentionKernel({1, 32, 1024, 128}, cfg, level,
                                       inputs());
}

engine::KernelPlan
gemvPlan(const vq::VQConfig &cfg, OptLevel level)
{
    return engine::planWeightKernel(OpKind::GeMV, {1, 4096, 4096}, cfg,
                                    level, inputs());
}

TEST(CudaEmitter, EmitsStructurallyValidSource)
{
    for (const auto &cfg : vq::paperConfigs()) {
        bool kv = cfg.scope == vq::CodebookScope::PerChannelGroup;
        for (OptLevel level : engine::kAllOptLevels) {
            auto plan = kv ? attnPlan(cfg, level) : gemvPlan(cfg, level);
            std::string src = emitCudaKernel(plan);
            EXPECT_EQ(validateCudaSource(src), "")
                << cfg.name << " @ " << engine::optLevelName(level);
        }
    }
}

TEST(CudaEmitter, ParametersAreEmbedded)
{
    auto plan = attnPlan(vq::cq2(), OptLevel::O4);
    std::string src = emitCudaKernel(plan);
    EXPECT_NE(src.find("#define VQ_VECTOR_SIZE 4"), std::string::npos);
    EXPECT_NE(src.find("#define VQ_INDEX_BITS 8"), std::string::npos);
    EXPECT_NE(src.find("#define CB_N_REG " +
                       std::to_string(plan.cache_plan.n_reg)),
              std::string::npos);
    EXPECT_NE(src.find("#define CB_N_SHARED " +
                       std::to_string(plan.cache_plan.n_shared)),
              std::string::npos);
    EXPECT_NE(src.find("#define DF_SPLIT_FACTOR " +
                       std::to_string(plan.dataflow.split)),
              std::string::npos);
}

TEST(CudaEmitter, CodebookCacheApiIsPresent)
{
    std::string src = emitCudaKernel(attnPlan(vq::cq2(), OptLevel::O2));
    EXPECT_NE(src.find("cb_load"), std::string::npos);
    EXPECT_NE(src.find("cb_access"), std::string::npos);
    EXPECT_NE(src.find("cb_switch"), std::string::npos);
    // Tier boundary tests, not tag lookups.
    EXPECT_NE(src.find("stored_index < CB_N_REG"), std::string::npos);
    EXPECT_NE(src.find("stored_index < CB_N_SHARED"), std::string::npos);
}

TEST(CudaEmitter, UnalignedIndexUnpackForAqlm)
{
    // 12-bit indices need the two-word funnel shift.
    std::string src = emitCudaKernel(gemvPlan(vq::aqlm3(), OptLevel::O2));
    EXPECT_NE(src.find("funnel"), std::string::npos);
    EXPECT_NE(src.find("#define VQ_INDEX_BITS 12"), std::string::npos);
    // Aligned 8-bit config takes the shift/mask path instead.
    std::string aligned =
        emitCudaKernel(gemvPlan(vq::gptvq2(), OptLevel::O2));
    EXPECT_EQ(aligned.find("funnel"), std::string::npos);
    EXPECT_NE(aligned.find("per_word"), std::string::npos);
}

TEST(CudaEmitter, LatticeDecodeForQuip)
{
    std::string src = emitCudaKernel(gemvPlan(vq::quip4(), OptLevel::O2));
    EXPECT_NE(src.find("signs"), std::string::npos);
    EXPECT_NE(src.find("__hneg"), std::string::npos);
    EXPECT_NE(src.find("#define VQ_LATTICE 1"), std::string::npos);
}

TEST(CudaEmitter, RegisterFusionEmitsShuffleSchedule)
{
    auto plan = attnPlan(vq::cq2(), OptLevel::O4);
    ASSERT_EQ(plan.fusion.level, engine::FusionLevel::Register);
    std::string src = emitCudaKernel(plan);
    EXPECT_NE(src.find("__shfl_xor_sync"), std::string::npos);
    // CQ-2 needs 3 shuffles -> offsets 1, 2, 3 each appear.
    for (int off : {1, 2, 3}) {
        EXPECT_NE(src.find(", " + std::to_string(off) + ");"),
                  std::string::npos)
            << "offset " << off;
    }
}

TEST(CudaEmitter, SharedFusionEmitsStaging)
{
    auto plan = attnPlan(vq::cq2(), OptLevel::O2);
    ASSERT_EQ(plan.fusion.level, engine::FusionLevel::Shared);
    std::string src = emitCudaKernel(plan);
    EXPECT_NE(src.find("shared_fusion_store"), std::string::npos);
    EXPECT_EQ(src.find("__shfl_xor_sync"), std::string::npos);
}

TEST(CudaEmitter, ReduceKernelOnlyWhenSplit)
{
    auto o3 = attnPlan(vq::cq2(), OptLevel::O3);
    ASSERT_GT(o3.dataflow.split, 1u);
    std::string with = emitCudaKernel(o3);
    EXPECT_NE(with.find("_reduce("), std::string::npos);

    auto o2 = attnPlan(vq::cq2(), OptLevel::O2);
    std::string without = emitCudaKernel(o2);
    EXPECT_EQ(without.find("_reduce("), std::string::npos);
}

TEST(CudaEmitter, LauncherUsesPlanGeometry)
{
    auto plan = gemvPlan(vq::gptvq2(), OptLevel::O4);
    std::string src = emitCudaKernel(plan);
    EXPECT_NE(src.find("dim3 grid(" +
                       std::to_string(plan.grid_blocks) + ")"),
              std::string::npos);
    EXPECT_NE(src.find("cudaLaunchKernel"), std::string::npos);
}

TEST(CudaEmitter, SymbolNamesUniqueAcrossLevelsShapesAndFusion)
{
    // Two plans differing in any of level, shape, op kind, config, or
    // fusion must emit distinct symbols: the dump example writes one
    // file per symbol and a deployment links the units together.
    std::set<std::string> names;
    std::size_t expected = 0;
    for (const auto &cfg : vq::paperConfigs()) {
        bool kv = cfg.scope == vq::CodebookScope::PerChannelGroup;
        for (OptLevel level : engine::kAllOptLevels) {
            std::vector<engine::KernelPlan> plans;
            if (kv) {
                plans.push_back(attnPlan(cfg, level));
                plans.push_back(engine::planAttentionKernel(
                    {8, 32, 4096, 128}, cfg, level, inputs()));
            } else {
                plans.push_back(gemvPlan(cfg, level));
                plans.push_back(engine::planWeightKernel(
                    OpKind::GeMV, {1, 8192, 8192}, cfg, level,
                    inputs()));
                plans.push_back(engine::planWeightKernel(
                    OpKind::GeMM, {4096, 4096, 4096}, cfg, level,
                    inputs()));
            }
            for (const auto &plan : plans) {
                names.insert(kernelSymbolName(plan));
                ++expected;
            }
        }
    }
    EXPECT_EQ(names.size(), expected);

    // Identical shape and level, different fusion decision: the
    // symbol must still differ.
    auto plan = attnPlan(vq::cq2(), OptLevel::O4);
    ASSERT_EQ(plan.fusion.level, engine::FusionLevel::Register);
    auto shared_fusion = plan;
    shared_fusion.fusion.level = engine::FusionLevel::Shared;
    EXPECT_NE(kernelSymbolName(plan), kernelSymbolName(shared_fusion));

    // Identical shape/level/fusion, different cache boundaries (the
    // access histogram moves them): the emitted body embeds
    // CB_N_REG/CB_N_SHARED, so the symbol must differ too.
    auto other_hist = plan;
    other_hist.cache_plan.n_reg = plan.cache_plan.n_reg + 4;
    EXPECT_NE(kernelSymbolName(plan), kernelSymbolName(other_hist));
}

TEST(CudaEmitter, SymbolNamesAreSanitized)
{
    auto plan = gemvPlan(vq::quip4(), OptLevel::O4);
    std::string name = kernelSymbolName(plan);
    EXPECT_EQ(name.find('#'), std::string::npos);
    EXPECT_EQ(name.find('-'), std::string::npos);
    EXPECT_NE(name.find("quip"), std::string::npos);
    EXPECT_NE(name.find("gemv"), std::string::npos);
}

TEST(CudaEmitter, EveryHelperTheBodyCallsIsDefined)
{
    // validateCudaSource checks structure only, so a call to a device
    // helper the source never defines would pass it and fail nvcc.  A
    // definition starts its line (the return type sits on the line
    // above); any other occurrence is a call.
    const std::string helpers[] = {
        "cb_load",        "cb_access",           "vq_unpack_index",
        "vq_dequant",     "reg_fusion_exchange", "shared_fusion_store",
        "shared_fusion_load"};
    // Vector sizes 2, 4 and 8: at O4 the GeMM (mma layout 2) of the
    // first fuses in registers with no shuffle at all.
    for (const vq::VQConfig &cfg : {vq::cq4(), vq::gptvq2(), vq::aqlm3()}) {
        for (OpKind kind :
             {OpKind::GeMM, OpKind::GeMV, OpKind::AttentionDecode}) {
            for (OptLevel level : engine::kAllOptLevels) {
                const engine::KernelPlan plan =
                    kind == OpKind::AttentionDecode
                        ? attnPlan(cfg, level)
                        : engine::planWeightKernel(
                              kind, {kind == OpKind::GeMM ? 64u : 1u,
                                     4096, 4096},
                              cfg, level, inputs());
                const std::string src = emitCudaKernel(plan);
                for (const std::string &helper : helpers) {
                    const std::string token = helper + "(";
                    bool defined = false, called = false;
                    for (std::size_t at = src.find(token);
                         at != std::string::npos;
                         at = src.find(token, at + 1)) {
                        if (at > 0 && src[at - 1] == '\n')
                            defined = true;
                        else
                            called = true;
                    }
                    EXPECT_TRUE(defined || !called)
                        << kernelSymbolName(plan) << " calls " << helper
                        << " but does not define it";
                }
            }
        }
    }
}

TEST(CudaEmitter, ValidatorCatchesDefects)
{
    EXPECT_NE(validateCudaSource("__global__ void f() {"), "");
    EXPECT_NE(validateCudaSource("void f() {}"), ""); // no __global__
    EXPECT_NE(validateCudaSource("__global__ void f() { g(; }"), "");
    EXPECT_EQ(validateCudaSource("__global__ void f() { g(1); }"), "");
    // Braces inside comments and strings are ignored.
    EXPECT_EQ(validateCudaSource(
                  "__global__ void f() { // }}}\n const char* s = "
                  "\"{\"; }"),
              "");
}

} // namespace
} // namespace vqllm::codegen
