#include "vq/codebook.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitutils.h"
#include "common/logging.h"

namespace vqllm::vq {

namespace {

/** Base entries scored per block of the lattice encode. */
constexpr std::size_t kLatticeBlock = 256;

} // namespace

Codebook
Codebook::plain(const Tensor<float> &entries)
{
    vqllm_assert(entries.rank() == 2, "entries must be [n, vec]");
    Codebook cb;
    cb.entries_ = entries;
    // Round through FP16: codebooks are stored in half precision.
    for (std::size_t i = 0; i < cb.entries_.size(); ++i)
        cb.entries_[i] = roundToHalf(cb.entries_[i]);
    cb.vectorSize_ = static_cast<unsigned>(entries.dim(1));
    cb.logicalEntries_ = entries.dim(0);
    cb.lattice_ = false;
    cb.buildSearch();
    return cb;
}

Codebook
Codebook::lattice(const Tensor<float> &base_entries)
{
    vqllm_assert(base_entries.rank() == 2, "entries must be [n, vec]");
    vqllm_assert(isPowerOfTwo(base_entries.dim(0)),
                 "lattice base must be a power of two");
    Codebook cb;
    cb.entries_ = base_entries;
    for (std::size_t i = 0; i < cb.entries_.size(); ++i)
        cb.entries_[i] = roundToHalf(std::abs(cb.entries_[i]));
    cb.vectorSize_ = static_cast<unsigned>(base_entries.dim(1));
    vqllm_assert(cb.vectorSize_ <= 16, "sign mask limited to 16 elements");
    cb.logicalEntries_ = base_entries.dim(0) << cb.vectorSize_;
    cb.lattice_ = true;
    cb.buildSearch();
    return cb;
}

void
Codebook::buildSearch()
{
    if (!lattice_) {
        search_ = NearestEntryIndex(entries_);
        return;
    }
    const std::size_t n = entries_.dim(0);
    baseColumns_.resize(n * vectorSize_);
    for (std::size_t e = 0; e < n; ++e)
        for (unsigned k = 0; k < vectorSize_; ++k)
            baseColumns_[k * n + e] = entries_.at(e, std::size_t(k));
}

void
Codebook::decode(std::uint32_t index, float *out) const
{
    vqllm_assert(index < logicalEntries_, "index ", index,
                 " out of range ", logicalEntries_);
    if (!lattice_) {
        const float *src = entries_.data() +
                           static_cast<std::size_t>(index) * vectorSize_;
        for (unsigned d = 0; d < vectorSize_; ++d)
            out[d] = src[d];
        return;
    }
    std::uint32_t base_mask =
        static_cast<std::uint32_t>(entries_.dim(0)) - 1;
    std::uint32_t base = index & base_mask;
    std::uint32_t signs = index >> ceilLog2(entries_.dim(0));
    const float *src =
        entries_.data() + static_cast<std::size_t>(base) * vectorSize_;
    for (unsigned d = 0; d < vectorSize_; ++d)
        out[d] = (signs >> d) & 1 ? -src[d] : src[d];
}

std::uint32_t
Codebook::encode(const float *sub, double *err) const
{
    double best = std::numeric_limits<double>::max();
    std::uint32_t best_idx = 0;

    if (!lattice_) {
        best_idx = search_.nearest(entries_, sub).index;
        if (err) {
            // Selection runs in float SIMD; report the chosen entry's
            // error in double so error comparisons against the
            // double-precision lattice search stay exact.
            const float *chosen =
                entries_.data() +
                static_cast<std::size_t>(best_idx) * vectorSize_;
            best = 0;
            for (unsigned k = 0; k < vectorSize_; ++k) {
                double diff = static_cast<double>(sub[k]) - chosen[k];
                best += diff * diff;
            }
        }
    } else {
        // Base entries are non-negative, so for each element the better
        // sign gives min((x - c)^2, (x + c)^2), which is (|x| - c)^2 in
        // double, bit for bit (DESIGN.md §6): score every base entry
        // against |sub| without a branch, in blocks of entries, and keep
        // the first strict minimum.  Only the winner needs its signs.
        const std::size_t n = entries_.dim(0);
        std::size_t best_e = n;
        double dist[kLatticeBlock];
        for (std::size_t e0 = 0; e0 < n; e0 += kLatticeBlock) {
            const std::size_t m = std::min(kLatticeBlock, n - e0);
            std::fill_n(dist, m, 0.0);
            for (unsigned k = 0; k < vectorSize_; ++k) {
                const double ax = std::abs(static_cast<double>(sub[k]));
                const double *col = baseColumns_.data() + k * n + e0;
                for (std::size_t j = 0; j < m; ++j) {
                    const double diff = ax - col[j];
                    dist[j] += diff * diff;
                }
            }
            for (std::size_t j = 0; j < m; ++j) {
                if (dist[j] < best) {
                    best = dist[j];
                    best_e = e0 + j;
                }
            }
        }
        if (best_e < n) {
            // The sign test of the full scan, for the winner only.
            const float *cand = entries_.data() + best_e * vectorSize_;
            std::uint32_t mask = 0;
            for (unsigned k = 0; k < vectorSize_; ++k) {
                double x = sub[k];
                double pos = x - cand[k];
                double neg = x + cand[k];
                if (neg * neg < pos * pos)
                    mask |= 1u << k;
            }
            best_idx = static_cast<std::uint32_t>(best_e) |
                       (mask << ceilLog2(n));
        }
    }
    if (err)
        *err = best;
    return best_idx;
}

std::vector<std::uint32_t>
Codebook::reorder(const std::vector<std::uint32_t> &perm)
{
    vqllm_assert(perm.size() == storedEntries(),
                 "permutation must cover all stored entries");
    Tensor<float> reordered({storedEntries(), vectorSize_});
    std::vector<std::uint32_t> inverse(perm.size());
    std::vector<bool> seen(perm.size(), false);
    for (std::uint32_t new_idx = 0; new_idx < perm.size(); ++new_idx) {
        std::uint32_t old_idx = perm[new_idx];
        vqllm_assert(old_idx < perm.size() && !seen[old_idx],
                     "perm is not a permutation");
        seen[old_idx] = true;
        inverse[old_idx] = new_idx;
        for (unsigned d = 0; d < vectorSize_; ++d)
            reordered.at(std::size_t(new_idx), std::size_t(d)) =
                entries_.at(std::size_t(old_idx), std::size_t(d));
    }
    entries_ = std::move(reordered);
    buildSearch();
    return inverse;
}

} // namespace vqllm::vq
