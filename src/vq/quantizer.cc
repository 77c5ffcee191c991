#include "vq/quantizer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"

namespace vqllm::vq {

std::size_t
QuantizedTensor::codebookUnit(std::size_t row, std::size_t subspace) const
{
    switch (config.scope) {
      case CodebookScope::PerTensor:
        return 0;
      case CodebookScope::PerChannelGroup:
        return subspace;
      case CodebookScope::PerTile: {
        std::size_t tiles_x = ceilDiv(cols, kGptvqTileCols);
        std::size_t tile_r = row / kGptvqTileRows;
        std::size_t tile_c = subspace * config.vector_size / kGptvqTileCols;
        return tile_r * tiles_x + tile_c;
      }
    }
    return 0;
}

std::size_t
QuantizedTensor::codebookTotalBytes() const
{
    std::size_t total = 0;
    for (const auto &cb : codebooks)
        total += cb.sizeBytes();
    return total;
}

VectorQuantizer::VectorQuantizer(VQConfig config, KMeansOptions kmeans)
    : config_(std::move(config)), kmeans_(kmeans)
{
    vqllm_assert(config_.vector_size >= 1, "vector size must be positive");
    vqllm_assert(config_.residuals >= 1, "need at least one stage");
}

namespace {

/** Encode-loop members per chunk (static layout). */
constexpr std::size_t kEncodeGrain = 512;

/** Rows per dequantize chunk. */
constexpr std::size_t kDequantGrain = 64;

/** Number of scope units for a tensor shape under a config. */
std::size_t
scopeUnits(const VQConfig &cfg, std::size_t rows, std::size_t cols)
{
    switch (cfg.scope) {
      case CodebookScope::PerTensor:
        return 1;
      case CodebookScope::PerChannelGroup:
        return cols / cfg.vector_size;
      case CodebookScope::PerTile:
        return ceilDiv(rows, kGptvqTileRows) * ceilDiv(cols, kGptvqTileCols);
    }
    return 1;
}

} // namespace

QuantizedTensor
VectorQuantizer::quantize(const Tensor<float> &data) const
{
    vqllm_assert(data.rank() == 2, "quantize expects [rows, cols]");
    const std::size_t rows = data.dim(0);
    const std::size_t cols = data.dim(1);
    vqllm_assert(cols % config_.vector_size == 0,
                 "cols ", cols, " not divisible by vector size ",
                 config_.vector_size);

    QuantizedTensor qt;
    qt.config = config_;
    qt.rows = rows;
    qt.cols = cols;
    qt.scope_units = scopeUnits(config_, rows, cols);
    qt.codebooks.resize(qt.scope_units * config_.residuals);
    qt.indices = BitStream(config_.indexBits());

    const std::size_t subspaces = cols / config_.vector_size;
    const unsigned vec = config_.vector_size;

    // Member (row, subspace) pairs per scope unit.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> members(
        qt.scope_units);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t s = 0; s < subspaces; ++s)
            members[qt.codebookUnit(r, s)].emplace_back(r, s);

    // Residual buffer: starts as the data, each stage subtracts the
    // decoded approximation (paper Fig. 1: iterative residual pipeline).
    Tensor<float> residual = data;

    // Index staging area: position -> logical index.
    std::vector<std::uint32_t> staged(
        rows * subspaces * config_.residuals, 0);

    // Scope units own disjoint (row, subspace) members, so their
    // residual slices, staged indices and codebooks never alias: units
    // fit in parallel.  Inside one unit (the only unit, for PerTensor
    // scope) the encode loop parallelizes over members instead; the
    // nested parallelFor runs inline when the unit level is already
    // parallel.  Both levels use static chunking, so results are
    // bit-identical for any thread count.
    par::parallelFor(qt.scope_units, 1, [&](const par::ChunkRange &uc) {
      for (std::size_t u = uc.begin; u < uc.end; ++u) {
        const auto &mem = members[u];
        if (mem.empty())
            continue;
        for (unsigned stage = 0; stage < config_.residuals; ++stage) {
            // Gather current residual sub-vectors of this unit.  Lattice
            // codebooks are trained on magnitudes; signs are recovered by
            // the per-element sign mask at encode time.
            Tensor<float> unit_data({mem.size(), vec});
            for (std::size_t m = 0; m < mem.size(); ++m) {
                auto [r, s] = mem[m];
                for (unsigned d = 0; d < vec; ++d) {
                    float v = residual.at(r, s * vec + d);
                    unit_data.at(m, std::size_t(d)) =
                        config_.lattice ? std::abs(v) : v;
                }
            }
            // Train this stage's codebook.
            KMeansOptions opts = kmeans_;
            opts.seed = kmeans_.seed + u * 131 + stage;
            Codebook cb;
            if (config_.lattice)
                cb = Codebook::lattice(kMeansCentroids(
                    unit_data, config_.lattice_base_entries, opts));
            else
                cb = Codebook::plain(
                    kMeansCentroids(unit_data, config_.num_entries, opts));

            // Encode members against the *raw* residual (not abs) and
            // subtract the decoded value.  Members are independent:
            // each touches only its own residual sub-vector and staged
            // slot.
            par::parallelFor(
                mem.size(), kEncodeGrain,
                [&](const par::ChunkRange &c) {
                    std::vector<float> sub(vec), dec(vec);
                    for (std::size_t m = c.begin; m < c.end; ++m) {
                        auto [r, s] = mem[m];
                        for (unsigned d = 0; d < vec; ++d)
                            sub[d] = residual.at(r, s * vec + d);
                        std::uint32_t idx = cb.encode(sub.data());
                        staged[qt.indexPosition(r, s, stage)] = idx;
                        cb.decode(idx, dec.data());
                        for (unsigned d = 0; d < vec; ++d)
                            residual.at(r, s * vec + d) -= dec[d];
                    }
                });
            qt.codebooks[u * config_.residuals + stage] = std::move(cb);
        }
      }
    });

    for (std::uint32_t idx : staged)
        qt.indices.push(idx);
    return qt;
}

void
VectorQuantizer::dequantizeSubvector(const QuantizedTensor &qt,
                                     std::size_t row, std::size_t subspace,
                                     float *out)
{
    const unsigned vec = qt.config.vector_size;
    for (unsigned d = 0; d < vec; ++d)
        out[d] = 0.0f;
    std::vector<float> dec(vec);
    for (unsigned stage = 0; stage < qt.config.residuals; ++stage) {
        const Codebook &cb = qt.codebookFor(row, subspace, stage);
        std::uint32_t idx = qt.indices.get(
            qt.indexPosition(row, subspace, stage));
        cb.decode(idx, dec.data());
        for (unsigned d = 0; d < vec; ++d)
            out[d] += dec[d];
    }
}

Tensor<float>
VectorQuantizer::dequantize(const QuantizedTensor &qt)
{
    Tensor<float> out({qt.rows, qt.cols});
    const unsigned vec = qt.config.vector_size;
    par::parallelFor(qt.rows, kDequantGrain, [&](const par::ChunkRange &c) {
        // Per-chunk scratch keeps the per-lookup allocation out of the
        // inner loop.
        std::vector<float> sub(vec), dec(vec);
        for (std::size_t r = c.begin; r < c.end; ++r) {
            for (std::size_t s = 0; s < qt.subspaces(); ++s) {
                for (unsigned d = 0; d < vec; ++d)
                    sub[d] = 0.0f;
                for (unsigned stage = 0; stage < qt.config.residuals;
                     ++stage) {
                    const Codebook &cb = qt.codebookFor(r, s, stage);
                    std::uint32_t idx = qt.indices.get(
                        qt.indexPosition(r, s, stage));
                    cb.decode(idx, dec.data());
                    for (unsigned d = 0; d < vec; ++d)
                        sub[d] += dec[d];
                }
                for (unsigned d = 0; d < vec; ++d)
                    out.at(r, s * vec + d) = sub[d];
            }
        }
    });
    return out;
}

} // namespace vqllm::vq
