#include "codegen/cuda_emitter.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/text_builder.h"

namespace vqllm::codegen {

using engine::FusionLevel;
using engine::KernelPlan;
using engine::OpKind;
using engine::OptLevel;

namespace {

/** Append `name` as a C identifier fragment: ASCII letters lowered,
 *  digits kept, every other byte '_'. */
void
appendSanitized(TextBuilder &out, std::string_view name)
{
    for (char c : name) {
        if (c >= 'A' && c <= 'Z')
            out << static_cast<char>(c - 'A' + 'a');
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out << c;
        else
            out << '_';
    }
}

/** Emit the #define block binding all plan parameters. */
void
emitParameters(TextBuilder &out, const KernelPlan &plan)
{
    const auto &cfg = plan.config;
    out << "// ---- plan parameters (resolved offline, Alg. 2) ----\n";
    out << "#define VQ_VECTOR_SIZE " << cfg.vector_size << "\n";
    out << "#define VQ_INDEX_BITS " << cfg.indexBits() << "\n";
    out << "#define VQ_RESIDUALS " << cfg.residuals << "\n";
    out << "#define VQ_STORED_ENTRIES " << cfg.storedEntries() << "\n";
    out << "#define VQ_LATTICE " << (cfg.lattice ? 1 : 0) << "\n";
    out << "#define CB_N_REG " << plan.cache_plan.n_reg << "\n";
    out << "#define CB_N_SHARED " << plan.cache_plan.n_shared << "\n";
    out << "#define CB_ENTRY_HALVES " << cfg.vector_size << "\n";
    out << "#define DF_SPLIT_FACTOR " << plan.dataflow.split << "\n";
    out << "#define FUSE_NUM_SHUFFLES " << plan.fusion.num_shuffles
        << "\n";
    out << "#define BLOCK_THREADS " << plan.block.threads << "\n";
    out << "#define MINI_WARP "
        << std::max(1, plan.fusion.mapping.mini_warp_size) << "\n";
    out << "\n";
}

/** Emit the codebook-cache device functions (paper Sec. V-C API). */
void
emitCodebookCache(TextBuilder &out)
{
    out << R"(// ---- codebook cache (Load / Access / Switch) ----
struct CodebookCache {
    // Hot entries replicated in thread-local registers.
    half reg_entries[CB_N_REG > 0 ? CB_N_REG * CB_ENTRY_HALVES : 1];
    // Medium entries cached in shared memory (set by cb_load).
    half* smem_entries;
    // Cold entries stay behind this global pointer.
    const half* gmem_entries;
};

__device__ __forceinline__ void
cb_load(CodebookCache& cb, const half* __restrict__ codebook,
        half* smem_buffer)
{
    cb.gmem_entries = codebook;
    cb.smem_entries = smem_buffer;
    // Cooperative copy of the shared tier: entries [CB_N_REG,
    // CB_N_SHARED) in frequency-rank order.
    const int shared_halves =
        (CB_N_SHARED - CB_N_REG) * CB_ENTRY_HALVES;
    for (int i = threadIdx.x; i < shared_halves; i += BLOCK_THREADS) {
        smem_buffer[i] = codebook[CB_N_REG * CB_ENTRY_HALVES + i];
    }
    // Broadcast load of the register tier (each thread keeps a copy).
    #pragma unroll
    for (int e = 0; e < CB_N_REG; ++e) {
        #pragma unroll
        for (int d = 0; d < CB_ENTRY_HALVES; ++d) {
            cb.reg_entries[e * CB_ENTRY_HALVES + d] =
                codebook[e * CB_ENTRY_HALVES + d];
        }
    }
    __syncthreads();
}

__device__ __forceinline__ void
cb_switch(CodebookCache& cb, const half* __restrict__ new_codebook)
{
    __syncthreads();
    cb_load(cb, new_codebook, cb.smem_entries);
}

__device__ __forceinline__ const half*
cb_access(const CodebookCache& cb, unsigned stored_index)
{
    // Boundary tests replace tag lookups: index order == frequency rank.
    if (stored_index < CB_N_REG) {
        return &cb.reg_entries[stored_index * CB_ENTRY_HALVES];
    }
    if (stored_index < CB_N_SHARED) {
        return &cb.smem_entries[(stored_index - CB_N_REG) *
                                CB_ENTRY_HALVES];
    }
    return &cb.gmem_entries[stored_index * CB_ENTRY_HALVES];
}

)";
}

/** Emit index unpack + dequantization for the config's bit layout. */
void
emitDequant(TextBuilder &out, const KernelPlan &plan)
{
    const auto &cfg = plan.config;
    out << "// ---- index unpack + dequantization ----\n";
    out << "__device__ __forceinline__ unsigned\n"
        << "vq_unpack_index(const unsigned* __restrict__ packed, "
        << "long position)\n{\n";
    if (cfg.indexBits() % 32 == 0) {
        out << "    return packed[position];\n";
    } else if (32 % cfg.indexBits() == 0) {
        out << "    // Aligned sub-word indices: single shift/mask.\n"
            << "    const unsigned per_word = 32u / VQ_INDEX_BITS;\n"
            << "    unsigned word = packed[position / per_word];\n"
            << "    unsigned shift = (position % per_word) * "
               "VQ_INDEX_BITS;\n"
            << "    return (word >> shift) & ((1u << VQ_INDEX_BITS) - "
               "1u);\n";
    } else {
        out << "    // Unaligned indices (e.g. 12-bit AQLM): the value\n"
            << "    // may straddle a word boundary -> two-word funnel "
               "shift.\n"
            << "    long bit = position * VQ_INDEX_BITS;\n"
            << "    unsigned lo = packed[bit >> 5];\n"
            << "    unsigned hi = packed[(bit >> 5) + 1];\n"
            << "    unsigned shift = bit & 31;\n"
            << "    unsigned long long window =\n"
            << "        (static_cast<unsigned long long>(hi) << 32) | "
               "lo;\n"
            << "    return static_cast<unsigned>(window >> shift) &\n"
            << "           ((1u << VQ_INDEX_BITS) - 1u);\n";
    }
    out << "}\n\n";

    out << "__device__ __forceinline__ void\n"
        << "vq_dequant(const CodebookCache& cb, unsigned logical,\n"
        << "           half out[VQ_VECTOR_SIZE])\n{\n";
    if (cfg.lattice) {
        unsigned base_bits = ceilLog2(cfg.storedEntries());
        out << "    // Lattice decode: base lookup + sign bit ops "
               "(QuiP#-style).\n"
            << "    unsigned base = logical & ((1u << " << base_bits
            << ") - 1u);\n"
            << "    unsigned signs = logical >> " << base_bits << ";\n"
            << "    const half* entry = cb_access(cb, base);\n"
            << "    #pragma unroll\n"
            << "    for (int d = 0; d < VQ_VECTOR_SIZE; ++d) {\n"
            << "        half v = entry[d];\n"
            << "        out[d] = (signs >> d) & 1u ? __hneg(v) : v;\n"
            << "    }\n";
    } else {
        out << "    const half* entry = cb_access(cb, logical);\n"
            << "    #pragma unroll\n"
            << "    for (int d = 0; d < VQ_VECTOR_SIZE; ++d) {\n"
            << "        out[d] = entry[d];\n"
            << "    }\n";
    }
    out << "}\n\n";
}

/** Emit the register-level exchange schedule (paper Fig. 12 / Alg. 1). */
void
emitRegFusion(TextBuilder &out, const KernelPlan &plan)
{
    out << "// ---- register-level fusion: xor-shuffle exchange ----\n";
    out << "// Thread remapping (lane_map[dequant_subvector] = lane):\n"
        << "// ";
    for (std::size_t i = 0; i < plan.fusion.mapping.lane_map.size();
         ++i) {
        out << plan.fusion.mapping.lane_map[i]
            << (i + 1 < plan.fusion.mapping.lane_map.size() ? "," : "");
    }
    out << "\n";
    out << "__device__ __forceinline__ void\n"
        << "reg_fusion_exchange(float frag[MINI_WARP])\n{\n"
        << "    const int lane = threadIdx.x & 31;\n";
    for (int off : plan.fusion.mapping.shuffle_offsets) {
        out << "    frag[(lane ^ " << off << ") % MINI_WARP] =\n"
            << "        __shfl_xor_sync(0xffffffffu,\n"
            << "                        frag[(lane ^ " << off
            << ") % MINI_WARP], " << off << ");\n";
    }
    out << "}\n\n";
}

/** Emit the shared-memory fusion staging helpers. */
void
emitSharedFusion(TextBuilder &out)
{
    out << R"(// ---- shared-memory fusion: staging round-trip ----
__device__ __forceinline__ void
shared_fusion_store(half* staging, int slot,
                    const half value[VQ_VECTOR_SIZE])
{
    #pragma unroll
    for (int d = 0; d < VQ_VECTOR_SIZE; ++d) {
        staging[slot * VQ_VECTOR_SIZE + d] = value[d];
    }
}

__device__ __forceinline__ half
shared_fusion_load(const half* staging, int element)
{
    return staging[element];
}

)";
}

/** Emit the op-specific kernel body skeleton. */
void
emitKernelBody(TextBuilder &out, const KernelPlan &plan,
               std::string_view name)
{
    const bool reg_fusion =
        plan.fusion.level == FusionLevel::Register;
    out << "// ---- fused kernel (" << engine::opKindName(plan.kind)
        << ", " << plan.config.name << " @ "
        << engine::optLevelName(plan.level) << ") ----\n";
    out << "extern \"C\" __global__ void\n" << name << "(\n";
    if (plan.kind == OpKind::AttentionDecode) {
        out << "    const half* __restrict__ q,\n"
            << "    const unsigned* __restrict__ k_indices,\n"
            << "    const unsigned* __restrict__ v_indices,\n"
            << "    const half* __restrict__ k_codebooks,\n"
            << "    const half* __restrict__ v_codebooks,\n"
            << "    float* __restrict__ partial_logits,\n"
            << "    half* __restrict__ out,\n"
            << "    int seq_len, int head_dim)\n";
    } else {
        out << "    const half* __restrict__ x,\n"
            << "    const unsigned* __restrict__ w_indices,\n"
            << "    const half* __restrict__ codebooks,\n"
            << "    float* __restrict__ partial_out,\n"
            << "    half* __restrict__ out,\n"
            << "    int m, int n, int k)\n";
    }
    out << "{\n";
    out << "    extern __shared__ half smem[];\n";
    out << "    half* cb_smem = smem;\n";
    if (!reg_fusion) {
        out << "    half* staging = smem + (CB_N_SHARED - CB_N_REG) * "
               "CB_ENTRY_HALVES;\n";
    }
    out << "    CodebookCache cb;\n";

    // Codebook-centric grid mapping (Parallel_For of Alg. 2).
    if (plan.level >= OptLevel::O3) {
        out << "    // Codebook-centric dataflow: each block owns one\n"
            << "    // codebook-switch segment (split factor "
            << plan.dataflow.split << ").\n"
            << "    const int segment = blockIdx.x % DF_SPLIT_FACTOR;\n"
            << "    const int tile = blockIdx.x / DF_SPLIT_FACTOR;\n"
            << "    (void)segment; (void)tile;\n";
    } else {
        out << "    const int tile = blockIdx.x;\n"
            << "    (void)tile;\n";
    }

    const char *books = plan.kind == OpKind::AttentionDecode
                            ? "k_codebooks"
                            : "codebooks";
    out << "    cb_load(cb, " << books << ", cb_smem);\n";
    out << "    half deq[VQ_VECTOR_SIZE];\n";
    out << "    float frag[MINI_WARP];\n";
    out << "    float acc = 0.f;\n";
    out << "    for (int iter = 0; iter < /*per-block work*/ 1; ++iter) "
           "{\n";
    out << "        // Switch to the next codebook when the segment\n"
        << "        // crosses a scope boundary ("
        << plan.switches_per_block << " switches/block).\n";
    out << "        unsigned idx = vq_unpack_index("
        << (plan.kind == OpKind::AttentionDecode ? "k_indices"
                                                 : "w_indices")
        << ", iter);\n";
    out << "        vq_dequant(cb, idx, deq);\n";
    if (reg_fusion) {
        out << "        #pragma unroll\n"
            << "        for (int i = 0; i < MINI_WARP; ++i) {\n"
            << "            frag[i] = __half2float(deq[i % "
               "VQ_VECTOR_SIZE]);\n"
            << "        }\n";
        // With no shuffle the dequantized layout is the consumer's, and
        // emitCudaKernel emits no exchange helper to call.
        if (plan.fusion.num_shuffles > 0)
            out << "        reg_fusion_exchange(frag);\n";
        out << "        acc += frag[0];\n";
    } else {
        out << "        shared_fusion_store(staging, threadIdx.x, "
               "deq);\n"
            << "        __syncthreads();\n"
            << "        acc += __half2float(shared_fusion_load(staging, "
               "threadIdx.x));\n";
    }
    out << "    }\n";

    if (plan.dataflow.needsGlobalReduce()) {
        out << "    // Partial results feed the global reduction "
               "epilogue.\n";
        out << "    "
            << (plan.kind == OpKind::AttentionDecode ? "partial_logits"
                                                     : "partial_out")
            << "[blockIdx.x * BLOCK_THREADS + threadIdx.x] = acc;\n";
    } else {
        out << "    out[blockIdx.x * BLOCK_THREADS + threadIdx.x] = "
               "__float2half(acc);\n";
    }
    out << "}\n\n";
}

/** Emit the global-reduction epilogue kernel. */
void
emitReduceKernel(TextBuilder &out, const KernelPlan &plan,
                 std::string_view name)
{
    out << "// ---- global reduction over the split segments ----\n"
        << "extern \"C\" __global__ void\n" << name << "_reduce(\n"
        << "    const float* __restrict__ partials,\n"
        << "    half* __restrict__ out, long elements)\n"
        << "{\n"
        << "    long i = static_cast<long>(blockIdx.x) * blockDim.x + "
           "threadIdx.x;\n"
        << "    if (i >= elements) return;\n"
        << "    float acc = 0.f;\n"
        << "    #pragma unroll\n"
        << "    for (int s = 0; s < DF_SPLIT_FACTOR; ++s) {\n"
        << "        acc += partials[s * elements + i];\n"
        << "    }\n"
        << "    out[i] = __float2half(acc);\n"
        << "}\n\n";
    (void)plan;
}

/** Emit the host-side launcher. */
void
emitLauncher(TextBuilder &out, const KernelPlan &plan,
             std::string_view name)
{
    std::size_t smem = plan.cache_plan.smemBytes();
    if (plan.fusion.level == FusionLevel::Shared)
        smem += static_cast<std::size_t>(plan.block.threads) *
                plan.config.vector_size * 2;
    out << "// ---- host launcher ----\n"
        << "extern \"C\" void\nlaunch_" << name
        << "(void** args, cudaStream_t stream)\n{\n"
        << "    dim3 grid(" << plan.grid_blocks << ");\n"
        << "    dim3 block(BLOCK_THREADS);\n"
        << "    size_t dynamic_smem = " << smem << ";\n"
        << "    cudaLaunchKernel(reinterpret_cast<void*>(&" << name
        << "),\n"
        << "                     grid, block, args, dynamic_smem, "
           "stream);\n"
        << "}\n";
}

} // namespace

std::string
kernelSymbolName(const KernelPlan &plan)
{
    // The symbol encodes every input that changes the emitted body:
    // op, config, shape, ladder rung, the fusion decision (plans at
    // one rung can still differ in fusion via the shuffle threshold)
    // and the cache boundaries (which follow the profiled access
    // histogram, not just the shape).  Two distinct plans must never
    // share a symbol — the dump example writes one file per symbol,
    // and a deployment links the translation units together.
    TextBuilder out(96);
    out << "vqllm_";
    appendSanitized(out, engine::opKindName(plan.kind));
    out << '_';
    appendSanitized(out, plan.config.name);
    out << '_';
    if (plan.kind == engine::OpKind::AttentionDecode) {
        out << "b" << plan.attn.batch << "h" << plan.attn.heads << "t"
            << plan.attn.seq_len << "c" << plan.attn.head_dim;
        if (plan.attn.kvHeads() != plan.attn.heads)
            out << "g" << plan.attn.kvHeads();
    } else {
        out << "m" << plan.gemm.m << "n" << plan.gemm.n << "k"
            << plan.gemm.k;
    }
    out << '_';
    appendSanitized(out, engine::optLevelName(plan.level));
    out << "_f"
        << (plan.fusion.level == engine::FusionLevel::Register ? "r"
                                                               : "s");
    if (plan.dataflow.split > 1)
        out << "_s" << plan.dataflow.split;
    if (plan.cache_plan.n_reg > 0 || plan.cache_plan.n_shared > 0)
        out << "_c" << plan.cache_plan.n_reg << "x"
            << plan.cache_plan.n_shared;
    return out.take();
}

std::string
emitCudaKernel(const KernelPlan &plan)
{
    return emitCudaKernel(plan, kernelSymbolName(plan));
}

std::string
emitCudaKernel(const KernelPlan &plan, std::string_view name)
{
    // Room for the longest source the Fig. 13 matrix emits (~6.7 KB);
    // take() trims the spare capacity off the retained result.
    TextBuilder out(8192);
    out << "// Auto-generated by VQ-LLM; do not edit.\n"
        << "// " << plan.config.name << " " << plan.config.notation()
        << " fused with " << engine::opKindName(plan.kind) << " at "
        << engine::optLevelName(plan.level) << "\n"
        << "//\n";
    plan.appendSummary(out, "// ");
    out << "\n#include <cuda_fp16.h>\n\n";

    emitParameters(out, plan);
    emitCodebookCache(out);
    emitDequant(out, plan);
    if (plan.fusion.level == FusionLevel::Register &&
        plan.fusion.num_shuffles > 0) {
        emitRegFusion(out, plan);
    } else if (plan.fusion.level == FusionLevel::Shared) {
        emitSharedFusion(out);
    }
    emitKernelBody(out, plan, name);
    if (plan.dataflow.needsGlobalReduce())
        emitReduceKernel(out, plan, name);
    emitLauncher(out, plan, name);
    return out.take();
}

std::string
validateCudaSource(const std::string &source)
{
    long braces = 0, parens = 0;
    bool in_line_comment = false;
    bool in_string = false;
    for (std::size_t i = 0; i < source.size(); ++i) {
        char c = source[i];
        if (in_line_comment) {
            if (c == '\n')
                in_line_comment = false;
            continue;
        }
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '/':
            if (i + 1 < source.size() && source[i + 1] == '/')
                in_line_comment = true;
            break;
          case '"': in_string = true; break;
          case '{': ++braces; break;
          case '}': --braces; break;
          case '(': ++parens; break;
          case ')': --parens; break;
          default: break;
        }
        if (braces < 0)
            return "unbalanced '}' near offset " + std::to_string(i);
        if (parens < 0)
            return "unbalanced ')' near offset " + std::to_string(i);
    }
    if (braces != 0)
        return "unbalanced braces: " + std::to_string(braces);
    if (parens != 0)
        return "unbalanced parentheses: " + std::to_string(parens);
    if (source.find("__global__") == std::string::npos)
        return "no __global__ kernel entry";
    if (source.find("$") != std::string::npos)
        return "unresolved template placeholder";
    return "";
}

} // namespace vqllm::codegen
