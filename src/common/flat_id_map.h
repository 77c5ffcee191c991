/**
 * @file
 * Open-addressing map from 64-bit ids to values.
 *
 * FlatIdMap keeps its entries in one power-of-two array of slots.  A
 * multiplicative (Fibonacci) hash picks an id's home slot, collisions
 * probe linearly, and erase shifts the rest of the probe run back
 * instead of leaving a tombstone, so every probe run stays as short as
 * the live entries make it.  An insert that would take the load above
 * one half doubles the table first: memory is a small multiple of the
 * peak live entry count, whatever the magnitude of the ids.
 *
 * Insert and erase move entries between slots, so a pointer from
 * find() is valid only until the next insert or erase.  The map cannot
 * be iterated: slot order is an artefact of the hash.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace vqllm {

template <typename Value>
class FlatIdMap
{
  public:
    /** @return the value stored under `id`, or nullptr. */
    Value *
    find(std::uint64_t id)
    {
        std::size_t i = locate(id);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    const Value *
    find(std::uint64_t id) const
    {
        std::size_t i = locate(id);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    /** Insert `id`, which must be absent, with a value-initialized
     *  Value; @return the new value. */
    Value &
    insert(std::uint64_t id)
    {
        if (2 * (size_ + 1) > slots_.size())
            rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
        ++size_;
        return place(id).value;
    }

    /** Remove `id`; @return false when it was absent. */
    bool
    erase(std::uint64_t id)
    {
        std::size_t hole = locate(id);
        if (hole == kAbsent)
            return false;
        // Backward shift: an entry later in the run moves into the hole
        // unless its home lies after the hole (cyclically), where a
        // probe for it would no longer pass the hole.  The last hole
        // left behind is the slot that empties.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].used;
             j = (j + 1) & mask) {
            std::size_t home = homeSlot(slots_[j].id, slots_.size());
            if (((j - home) & mask) < ((j - hole) & mask))
                continue;
            slots_[hole].id = slots_[j].id;
            slots_[hole].value = std::move(slots_[j].value);
            hole = j;
        }
        slots_[hole].used = false;
        slots_[hole].value = Value{};
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }

    /** @return allocated slots: 0 before the first insert, then a power
     *  of two of at least twice size(). */
    std::size_t capacity() const { return slots_.size(); }

    /** @return the slot where a probe for `id` starts in a table of
     *  `capacity` slots (a power of two, at least 2). */
    static std::size_t
    homeSlot(std::uint64_t id, std::size_t capacity)
    {
        return static_cast<std::size_t>(
            (id * 0x9E3779B97F4A7C15ull) >> (64 - std::countr_zero(capacity)));
    }

  private:
    struct Slot
    {
        std::uint64_t id = 0;
        bool used = false;
        Value value{};
    };

    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    std::size_t
    locate(std::uint64_t id) const
    {
        if (slots_.empty())
            return kAbsent;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = homeSlot(id, slots_.size());;
             i = (i + 1) & mask) {
            if (!slots_[i].used)
                return kAbsent;
            if (slots_[i].id == id)
                return i;
        }
    }

    /** Claim the first free slot of `id`'s probe run (the table has
     *  room). */
    Slot &
    place(std::uint64_t id)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeSlot(id, slots_.size());
        for (; slots_[i].used; i = (i + 1) & mask)
            vqllm_assert(slots_[i].id != id, "id ", id,
                         " is already in the map");
        slots_[i].used = true;
        slots_[i].id = id;
        return slots_[i];
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(capacity));
        for (Slot &s : old)
            if (s.used)
                place(s.id).value = std::move(s.value);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace vqllm
