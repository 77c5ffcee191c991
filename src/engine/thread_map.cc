#include "engine/thread_map.h"

#include "common/logging.h"

namespace vqllm::engine {

ThreadMapping
computeThreadMapping(int warp_size, int vector_size, int compute_layout)
{
    vqllm_assert(warp_size > 0 && vector_size > 0 && compute_layout > 0,
                 "bad layout arguments");
    vqllm_assert(vector_size % compute_layout == 0,
                 "compute layout ", compute_layout,
                 " must divide vector size ", vector_size);
    const int ratio = vector_size / compute_layout;
    vqllm_assert(warp_size % ratio == 0,
                 "mini-warp size must divide the warp");

    // Alg. 1 in closed form.  Lines 2-3 give element e of the warp
    // tile the dequant lane e / vector_size and the compute lane
    // (e / compute_layout) % warp_size.  Dequant lane d therefore holds
    // fragments d * ratio .. d * ratio + ratio - 1, and since ratio
    // divides the warp they never wrap: its ordered consumer list
    // (lines 4-9) is the ratio lanes from (d * ratio) % warp_size =
    // (d % groups) * ratio on, with groups = warp_size / ratio.  The
    // dequant lanes sharing that list, i.e. one mini-warp, are
    // d % groups + i * groups for i = 0 .. ratio - 1, in ascending
    // order.  Lines 10-11 remap the i-th member, i = d / groups, onto
    // the i-th consumer lane:
    //   lane_map[d] = (d % groups) * ratio + d / groups,
    // so all exchanges stay within the mini-warp.  Ratio 1 (layouts
    // already match) gives the identity.
    const int groups = warp_size / ratio;
    ThreadMapping mapping;
    mapping.mini_warp_size = ratio;
    mapping.lane_map.resize(warp_size);
    for (int d = 0; d < warp_size; ++d)
        mapping.lane_map[d] = (d % groups) * ratio + d / groups;

    // Line 13: one xor-shuffle per non-identity exchange iteration.
    for (int off = 1; off < ratio; ++off)
        mapping.shuffle_offsets.push_back(off);
    return mapping;
}

bool
verifyMapping(const ThreadMapping &mapping, int warp_size, int vector_size,
              int compute_layout)
{
    const int ratio = vector_size / compute_layout;
    if (mapping.mini_warp_size != ratio)
        return false;
    if (static_cast<int>(mapping.lane_map.size()) != warp_size)
        return false;

    // lane_map must be a permutation.
    std::vector<bool> seen(warp_size, false);
    for (int lane : mapping.lane_map) {
        if (lane < 0 || lane >= warp_size || seen[lane])
            return false;
        seen[lane] = true;
    }

    if (ratio == 1)
        return true;

    // Simulate: lane l dequantizes the sub-vector s with lane_map[s]==l,
    // storing fragment j (elements [s*vec + j*layout, ...)) in register
    // slot j.  Fragment ids are encoded as floats.
    std::vector<int> inverse(warp_size);
    for (int s = 0; s < warp_size; ++s)
        inverse[mapping.lane_map[s]] = s;

    gpusim::WarpRegisters<float> regs(warp_size, ratio);
    for (int l = 0; l < warp_size; ++l) {
        int s = inverse[l];
        for (int j = 0; j < ratio; ++j)
            regs.at(l, j) = static_cast<float>(s * ratio + j);
    }

    for (int off : mapping.shuffle_offsets)
        regs.shflXorStep(off);

    // Every fragment must now reside on the lane that computes with it.
    for (int l = 0; l < warp_size; ++l) {
        for (int j = 0; j < ratio; ++j) {
            int fragment = static_cast<int>(regs.at(l, j));
            int compute_lane = fragment % warp_size;
            if (compute_lane != l)
                return false;
        }
    }
    return true;
}

} // namespace vqllm::engine
