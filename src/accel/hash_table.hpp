#pragma once
// Open-addressing hash table specialized for 64-bit keys — the table under
// the query engine's HashJoin and GroupAggregate operators.
//
// Linear probing with a power-of-two capacity and multiplicative hashing.
// Key 0 marks an empty slot, so a stored key 0 is held out of band: a flag
// and a value beside the slot array. Every other key, INT64_MIN's bits
// included, lives in the slots.

#include <cstdint>
#include <vector>

#include "accel/simd/simd.hpp"

namespace rb::accel {

/// Maps uint64 keys to uint64 values with upsert-by-combine semantics.
class HashTable64 {
 public:
  /// `expected` sizes the table at ~2x occupancy headroom.
  explicit HashTable64(std::size_t expected = 16);

  /// Insert key->value, or combine with the existing value via `op(old, v)`.
  template <typename Op>
  void upsert(std::uint64_t key, std::uint64_t value, Op op) {
    if (key == kEmpty) {
      zero_value_ = has_zero_ ? op(zero_value_, value) : value;
      has_zero_ = true;
      return;
    }
    if (size_ * 2 >= slots_.size()) grow();
    std::size_t i = probe_start(key);
    for (;;) {
      auto& slot = slots_[i];
      if (slot.key == kEmpty) {
        slot.key = key;
        slot.value = value;
        ++size_;
        return;
      }
      if (slot.key == key) {
        slot.value = op(slot.value, value);
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Returns pointer to the value for `key`, or nullptr when absent.
  const std::uint64_t* find(std::uint64_t key) const noexcept;

  /// Batched lookup through the dispatched SIMD probe kernel: for each of
  /// the n keys, values[i] = stored value and found[i] = 1 when present,
  /// else values[i] = 0 and found[i] = 0. Bit-identical to calling find()
  /// per key (same hash, same probe order); key-0 lanes are patched from
  /// the out-of-band entry after the kernel.
  void find_batch(const std::uint64_t* keys, std::size_t n,
                  std::uint64_t* values, std::uint8_t* found) const noexcept;

  std::size_t size() const noexcept { return size_ + (has_zero_ ? 1 : 0); }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t value;
  };
  // The SIMD probe kernel (simd::hash_find_batch) reads slots_ as a raw
  // word array, so the layout and the hashing constants are shared with
  // accel/simd/simd.hpp — keep them in lockstep.
  static_assert(sizeof(Slot) == 2 * sizeof(std::uint64_t));
  static constexpr std::uint64_t kEmpty = simd::kHashEmpty;

  std::size_t probe_start(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>(k * simd::kHashMul) & mask_;
  }

  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // occupied slots; key 0 is counted by has_zero_
  bool has_zero_ = false;
  std::uint64_t zero_value_ = 0;
};

}  // namespace rb::accel
