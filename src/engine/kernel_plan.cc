#include "engine/kernel_plan.h"

#include "common/text_builder.h"

namespace vqllm::engine {

const char *
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::GC: return "GC";
      case OptLevel::SC: return "SC";
      case OptLevel::O1: return "O1";
      case OptLevel::O2: return "O2";
      case OptLevel::O3: return "O3";
      case OptLevel::O4: return "O4";
    }
    return "?";
}

std::string
KernelPlan::summary() const
{
    TextBuilder out(512);
    appendSummary(out, "");
    return out.take();
}

void
KernelPlan::appendSummary(TextBuilder &out, std::string_view prefix) const
{
    out << prefix << opKindName(kind) << " / " << config.name << " ("
        << config.notation() << ") @ " << optLevelName(level) << "\n";
    if (kind == OpKind::AttentionDecode) {
        out << prefix << "  shape: batch=" << attn.batch
            << " heads=" << attn.heads << " seq=" << attn.seq_len
            << " head_dim=" << attn.head_dim << "\n";
    } else {
        out << prefix << "  shape: m=" << gemm.m << " n=" << gemm.n
            << " k=" << gemm.k << "\n";
    }
    out << prefix << "  cache: n_reg=" << cache_plan.n_reg
        << " n_shared=" << cache_plan.n_shared << " of "
        << cache_plan.total_entries << " entries ("
        << cache_plan.smemBytes() << " B smem, "
        << cache_plan.regsPerThread() << " regs/thread)\n";
    out << prefix << "  dataflow: split=" << dataflow.split << " (raw "
        << dataflow.split_factor_raw << ", max " << dataflow.max_split
        << "), codebook bytes " << dataflow.codebook_bytes
        << ", reduce bytes " << dataflow.reduce_bytes << "\n";
    out << prefix << "  fusion: " << fusionLevelName(fusion.level) << ", "
        << fusion.num_shuffles << " shuffles, compute layout "
        << fusion.compute_layout << "\n";
    out << prefix << "  launch: " << grid_blocks << " blocks x "
        << block.threads << " threads, smem " << block.smem_bytes
        << " B, regs " << block.regs_per_thread << "/thread"
        << (uses_tensor_cores ? ", tensor cores" : "") << "\n";
    out << prefix << "  books: total=" << total_books
        << " resident=" << resident_books
        << " switches/block=" << switches_per_block << "\n";
}

} // namespace vqllm::engine
