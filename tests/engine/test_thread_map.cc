/**
 * @file
 * Tests for the offline thread-mapping algorithm (paper Alg. 1): the
 * remapping confines exchanges to mini-warps and the xor schedule
 * delivers every fragment to its computing lane; the naive mapping
 * provably does not.  computeThreadMapping evaluates Alg. 1 in closed
 * form; referenceMapping below runs the algorithm step by step, and
 * the two must agree on every valid layout.
 */
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "engine/thread_map.h"

namespace vqllm::engine {
namespace {

/** Alg. 1 as written: key each dequant lane by the ordered list of
 *  lanes that consume its data, then send the i-th member of each
 *  group onto the i-th consumer lane. */
ThreadMapping
referenceMapping(int warp_size, int vector_size, int compute_layout)
{
    const int ratio = vector_size / compute_layout;
    ThreadMapping mapping;
    mapping.mini_warp_size = ratio;
    mapping.lane_map.resize(warp_size);
    if (ratio == 1) {
        std::iota(mapping.lane_map.begin(), mapping.lane_map.end(), 0);
        return mapping;
    }
    // Lines 2-3: each element's dequantizing and computing lane.
    const int elements = warp_size * vector_size;
    std::vector<int> tid_compute(elements);
    for (int e = 0; e < elements; ++e)
        tid_compute[e] = (e / compute_layout) % warp_size;
    // Lines 4-9: the consumer list of a dequant lane keys its mini-warp.
    std::map<std::vector<int>, std::vector<int>> mini_warps;
    for (int d = 0; d < warp_size; ++d) {
        std::vector<int> consumers;
        for (int e = d * vector_size; e < (d + 1) * vector_size; ++e) {
            if (consumers.empty() || consumers.back() != tid_compute[e])
                consumers.push_back(tid_compute[e]);
        }
        EXPECT_EQ(static_cast<int>(consumers.size()), ratio);
        mini_warps[consumers].push_back(d);
    }
    // Lines 10-11: i-th member onto the i-th consumer lane.
    for (const auto &[consumers, members] : mini_warps) {
        EXPECT_EQ(members.size(), consumers.size());
        for (std::size_t i = 0; i < members.size(); ++i)
            mapping.lane_map[members[i]] = consumers[i];
    }
    for (int off = 1; off < ratio; ++off)
        mapping.shuffle_offsets.push_back(off);
    return mapping;
}

TEST(ThreadMap, ClosedFormEqualsAlgorithmOnEveryValidLayout)
{
    // Warps of 1..128 lanes (powers of two), vectors of 1..64
    // elements, every layout dividing the vector whose mini-warp
    // divides the warp.
    int triples = 0;
    for (int warp = 1; warp <= 128; warp *= 2) {
        for (int vec = 1; vec <= 64; ++vec) {
            for (int layout = 1; layout <= vec; ++layout) {
                if (vec % layout != 0 || warp % (vec / layout) != 0)
                    continue;
                ++triples;
                const ThreadMapping got =
                    computeThreadMapping(warp, vec, layout);
                const ThreadMapping want =
                    referenceMapping(warp, vec, layout);
                SCOPED_TRACE(testing::Message() << "warp=" << warp
                                                << " vec=" << vec
                                                << " layout=" << layout);
                EXPECT_EQ(got.mini_warp_size, want.mini_warp_size);
                EXPECT_EQ(got.lane_map, want.lane_map);
                EXPECT_EQ(got.shuffle_offsets, want.shuffle_offsets);
                EXPECT_TRUE(verifyMapping(want, warp, vec, layout));
                EXPECT_TRUE(verifyMapping(got, warp, vec, layout));
            }
        }
    }
    EXPECT_EQ(triples, 896);
}

TEST(ThreadMap, IdentityWhenLayoutsMatch)
{
    auto m = computeThreadMapping(32, 4, 4);
    EXPECT_EQ(m.mini_warp_size, 1);
    EXPECT_EQ(m.numShuffles(), 0);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(m.lane_map[i], i);
    EXPECT_TRUE(verifyMapping(m, 32, 4, 4));
}

TEST(ThreadMap, Fig12CaseVec8Layout2)
{
    // The paper's example: VQ<8,...> fused with mma (layout 2) needs
    // mini-warps of 4 and 3 shuffles.
    auto m = computeThreadMapping(32, 8, 2);
    EXPECT_EQ(m.mini_warp_size, 4);
    EXPECT_EQ(m.numShuffles(), 3);
    EXPECT_EQ(m.shuffle_offsets, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(verifyMapping(m, 32, 8, 2));
}

TEST(ThreadMap, LaneMapIsPermutation)
{
    for (auto [vec, layout] : std::vector<std::pair<int, int>>{
             {8, 2}, {8, 1}, {4, 1}, {4, 2}, {2, 1}}) {
        auto m = computeThreadMapping(32, vec, layout);
        std::set<int> lanes(m.lane_map.begin(), m.lane_map.end());
        EXPECT_EQ(lanes.size(), 32u) << vec << "/" << layout;
        EXPECT_EQ(*lanes.begin(), 0);
        EXPECT_EQ(*lanes.rbegin(), 31);
    }
}

TEST(ThreadMap, MiniWarpMembersShareConsumerSet)
{
    // Members of one mini-warp produce data consumed by the same lanes.
    auto m = computeThreadMapping(32, 8, 2); // ratio 4
    // Under the fragment model, dequant lanes d and d+8 produce for the
    // same consumer lanes; the remap must send them to the same aligned
    // 4-lane group.
    for (int d = 0; d < 8; ++d) {
        int group = m.lane_map[d] / 4;
        EXPECT_EQ(m.lane_map[d + 8] / 4, group);
        EXPECT_EQ(m.lane_map[d + 16] / 4, group);
        EXPECT_EQ(m.lane_map[d + 24] / 4, group);
    }
}

TEST(ThreadMap, NaiveSequentialMappingFailsVerification)
{
    // Alg. 1's motivation: the identity (sequential) mapping produces a
    // complex exchange graph the xor schedule cannot realize.
    ThreadMapping naive;
    naive.mini_warp_size = 4;
    naive.lane_map.resize(32);
    std::iota(naive.lane_map.begin(), naive.lane_map.end(), 0);
    naive.shuffle_offsets = {1, 2, 3};
    EXPECT_FALSE(verifyMapping(naive, 32, 8, 2));
}

TEST(ThreadMap, VerifyRejectsBrokenPermutations)
{
    auto m = computeThreadMapping(32, 8, 2);
    auto broken = m;
    broken.lane_map[0] = broken.lane_map[1]; // duplicate lane
    EXPECT_FALSE(verifyMapping(broken, 32, 8, 2));
    auto truncated = m;
    truncated.shuffle_offsets.pop_back(); // schedule too short
    EXPECT_FALSE(verifyMapping(truncated, 32, 8, 2));
}

class ThreadMapSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ThreadMapSweep, MappingVerifiesForAllLayoutPairs)
{
    // Property (paper Tbl. V #Shuffle rows): for every vector size and
    // compute layout in the design space, the computed mapping passes
    // functional verification with exactly ratio-1 shuffles.
    auto [vec, layout] = GetParam();
    if (vec % layout != 0)
        GTEST_SKIP() << "layout must divide vector size";
    auto m = computeThreadMapping(32, vec, layout);
    EXPECT_EQ(m.numShuffles(), vec / layout - 1);
    EXPECT_TRUE(verifyMapping(m, 32, vec, layout))
        << "vec=" << vec << " layout=" << layout;
}

INSTANTIATE_TEST_SUITE_P(
    LayoutPairs, ThreadMapSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32),
                       ::testing::Values(1, 2, 4, 8)));

TEST(ThreadMapDeath, RejectsIndivisibleLayouts)
{
    EXPECT_DEATH(computeThreadMapping(32, 8, 3), "divide");
}

} // namespace
} // namespace vqllm::engine
