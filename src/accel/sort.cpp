#include "accel/sort.hpp"

#include <utility>

namespace rb::accel {

void radix_sort(std::vector<std::uint64_t>& keys) {
  if (keys.size() < 2) return;
  std::vector<std::uint64_t> buffer(keys.size());
  auto* src = &keys;
  auto* dst = &buffer;
  for (int pass = 0; pass < 8; ++pass) {
    const int shift = pass * 8;
    std::size_t counts[256] = {};
    for (const auto k : *src) ++counts[(k >> shift) & 0xff];
    // Skip passes where all keys share the byte (common for small ranges).
    bool trivial = false;
    for (const auto c : counts) {
      if (c == src->size()) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    std::size_t offsets[256];
    std::size_t running = 0;
    for (int b = 0; b < 256; ++b) {
      offsets[b] = running;
      running += counts[b];
    }
    for (const auto k : *src) {
      (*dst)[offsets[(k >> shift) & 0xff]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != &keys) keys = *src;
}

}  // namespace rb::accel
