/**
 * @file
 * Tests for FlatIdMap: seeded random insert/find/erase sequences agree
 * with std::unordered_map over id sets that stress the hash (sequential
 * ids, ids equal modulo the capacity, full 64-bit ids), erase repairs
 * probe runs that wrap past the last slot, and growth keeps the load at
 * or below one half.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_id_map.h"
#include "common/rng.h"

namespace vqllm {
namespace {

/** A value that owns heap memory, so moves between slots are checked
 *  (and, under ASan, their lifetimes). */
using Value = std::vector<std::uint64_t>;

void
expectSame(const FlatIdMap<Value> &map,
           const std::unordered_map<std::uint64_t, Value> &ref,
           const std::vector<std::uint64_t> &ids)
{
    ASSERT_EQ(map.size(), ref.size());
    for (std::uint64_t id : ids) {
        auto it = ref.find(id);
        const Value *v = map.find(id);
        if (it == ref.end()) {
            EXPECT_EQ(v, nullptr) << "id " << id;
        } else {
            ASSERT_NE(v, nullptr) << "id " << id;
            EXPECT_EQ(*v, it->second) << "id " << id;
        }
    }
}

/** Random insert/find/erase over `ids`, checked against
 *  std::unordered_map after every operation. */
void
randomOps(const std::vector<std::uint64_t> &ids, std::uint64_t seed,
          int ops)
{
    Rng rng(seed);
    FlatIdMap<Value> map;
    std::unordered_map<std::uint64_t, Value> ref;
    for (int op = 0; op < ops; ++op) {
        std::uint64_t id = ids[rng.uniformInt(ids.size())];
        bool present = ref.count(id) != 0;
        // Insert-heavy while small, erase-heavy while large: the map
        // churns around half the id set once it has grown.
        bool insert = rng.uniform() * static_cast<double>(ids.size()) >=
                      static_cast<double>(ref.size());
        if (insert && !present) {
            Value v{id, static_cast<std::uint64_t>(op)};
            map.insert(id) = v;
            ref.emplace(id, v);
        } else if (!insert) {
            EXPECT_EQ(map.erase(id), present) << "id " << id;
            ref.erase(id);
        }
        ASSERT_EQ(map.size(), ref.size());
        const Value *v = map.find(id);
        ASSERT_EQ(v != nullptr, ref.count(id) != 0) << "id " << id;
        if (v != nullptr) {
            EXPECT_EQ(*v, ref.at(id));
        }
        if (op % 97 == 0)
            expectSame(map, ref, ids);
    }
    expectSame(map, ref, ids);
}

TEST(FlatIdMap, EmptyMapFindsNothing)
{
    FlatIdMap<Value> map;
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(~std::uint64_t{0}), nullptr);
    EXPECT_FALSE(map.erase(7));
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);
}

TEST(FlatIdMap, SequentialIdsMatchUnorderedMap)
{
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id = 0; id < 200; ++id)
        ids.push_back(id);
    randomOps(ids, 1, 20000);
}

TEST(FlatIdMap, IdsEqualModuloCapacityMatchUnorderedMap)
{
    // Multiples of every capacity the table passes through: a hash
    // that kept the low bits would send them all to one slot.
    std::vector<std::uint64_t> ids;
    for (std::uint64_t k = 0; k < 150; ++k)
        ids.push_back(k * 1024);
    randomOps(ids, 2, 20000);
}

TEST(FlatIdMap, Full64BitIdsMatchUnorderedMap)
{
    Rng rng(3);
    std::vector<std::uint64_t> ids{0, 1, ~std::uint64_t{0},
                                   std::uint64_t{1} << 63};
    while (ids.size() < 300)
        ids.push_back(rng.next());
    randomOps(ids, 4, 30000);
}

TEST(FlatIdMap, EraseRepairsWrappedProbeRun)
{
    // Ids whose home is the last slot of the first table (16 slots)
    // or slot 0: inserted as x1, w, x2, they fill slots 15, 0, 1, a
    // run that wraps past the end.
    constexpr std::size_t kCap = 16;
    std::vector<std::uint64_t> last, first;
    for (std::uint64_t id = 1; last.size() < 3 || first.size() < 1; ++id) {
        std::size_t home = FlatIdMap<Value>::homeSlot(id, kCap);
        if (home == kCap - 1 && last.size() < 3)
            last.push_back(id);
        else if (home == 0 && first.empty())
            first.push_back(id);
    }
    const std::uint64_t x1 = last[0], x2 = last[1], x3 = last[2];
    const std::uint64_t w = first[0];

    // Erasing x1 (slot 15): w (home 0, in slot 0) must stay, since a
    // probe for it starts after the hole; x2 (home 15, in slot 1)
    // must move back into the hole.
    {
        FlatIdMap<Value> map;
        map.insert(x1) = {x1};
        map.insert(w) = {w};
        map.insert(x2) = {x2};
        ASSERT_EQ(map.capacity(), kCap);
        ASSERT_TRUE(map.erase(x1));
        EXPECT_EQ(map.find(x1), nullptr);
        ASSERT_NE(map.find(w), nullptr);
        EXPECT_EQ(*map.find(w), Value{w});
        ASSERT_NE(map.find(x2), nullptr);
        EXPECT_EQ(*map.find(x2), Value{x2});
        // The run is intact after a second erase across the wrap.
        ASSERT_TRUE(map.erase(x2));
        ASSERT_NE(map.find(w), nullptr);
        EXPECT_EQ(map.size(), 1u);
    }
    // Erasing x2 in the middle of the wrapped run (slot 0): x3 (home
    // 15) and then w (home 0, displaced to slot 2) both shift back.
    {
        FlatIdMap<Value> map;
        map.insert(x1) = {x1};
        map.insert(x2) = {x2};
        map.insert(x3) = {x3};
        map.insert(w) = {w};
        ASSERT_TRUE(map.erase(x2));
        for (std::uint64_t id : {x1, x3, w}) {
            ASSERT_NE(map.find(id), nullptr) << "id " << id;
            EXPECT_EQ(*map.find(id), Value{id});
        }
        EXPECT_EQ(map.find(x2), nullptr);
        EXPECT_FALSE(map.erase(x2));
        // Re-inserting the erased id reuses the run without a
        // duplicate.
        map.insert(x2) = {x2, 1};
        EXPECT_EQ(*map.find(x2), (Value{x2, 1}));
        EXPECT_EQ(map.size(), 4u);
    }
}

TEST(FlatIdMap, GrowthKeepsLoadAtMostHalf)
{
    FlatIdMap<Value> map;
    for (std::uint64_t id = 0; id < 1000; ++id) {
        map.insert(id * 7919) = {id};
        EXPECT_LE(2 * map.size(), map.capacity());
        EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
    }
    EXPECT_EQ(map.capacity(), 2048u);
    for (std::uint64_t id = 0; id < 1000; id += 2)
        ASSERT_TRUE(map.erase(id * 7919));
    for (std::uint64_t id = 0; id < 1000; ++id) {
        const Value *v = map.find(id * 7919);
        if (id % 2 == 0) {
            EXPECT_EQ(v, nullptr);
        } else {
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, Value{id});
        }
    }
    // Memory follows the live entries, not the ids: full 64-bit ids
    // take the same table as small ones.
    FlatIdMap<Value> wide;
    for (std::uint64_t id = 0; id < 1000; ++id)
        wide.insert(~std::uint64_t{0} - id) = {id};
    EXPECT_EQ(wide.capacity(), 2048u);
}

TEST(FlatIdMapDeathTest, DuplicateInsertIsFatal)
{
    FlatIdMap<Value> map;
    map.insert(5);
    EXPECT_DEATH(map.insert(5), "already in the map");
}

} // namespace
} // namespace vqllm
