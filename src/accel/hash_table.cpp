#include "accel/hash_table.hpp"

#include <bit>

namespace rb::accel {

HashTable64::HashTable64(std::size_t expected) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(16, expected * 2));
  slots_.assign(cap, Slot{kEmpty, 0});
  mask_ = cap - 1;
}

const std::uint64_t* HashTable64::find(std::uint64_t key) const noexcept {
  if (key == kEmpty) return has_zero_ ? &zero_value_ : nullptr;
  std::size_t i = probe_start(key);
  for (;;) {
    const auto& slot = slots_[i];
    if (slot.key == kEmpty) return nullptr;
    if (slot.key == key) return &slot.value;
    i = (i + 1) & mask_;
  }
}

void HashTable64::find_batch(const std::uint64_t* keys, std::size_t n,
                             std::uint64_t* values,
                             std::uint8_t* found) const noexcept {
  simd::kernels().hash_find_batch(
      reinterpret_cast<const std::uint64_t*>(slots_.data()), mask_, keys, n,
      values, found);
  if (!has_zero_) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == kEmpty) {
      values[i] = zero_value_;
      found[i] = 1;
    }
  }
}

void HashTable64::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t cap = old.size() * 2;
  slots_.assign(cap, Slot{kEmpty, 0});
  mask_ = cap - 1;
  size_ = 0;
  for (const auto& slot : old) {
    if (slot.key == kEmpty) continue;
    std::size_t i = probe_start(slot.key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
    ++size_;
  }
}

}  // namespace rb::accel
