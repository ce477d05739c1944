#pragma once
// Sort building block (Rec 10): LSD radix sort for 64-bit keys. Sorting
// shows up in every shuffle and in the "terasort"-style suite entry.

#include <cstdint>
#include <vector>

namespace rb::accel {

/// In-place LSD radix sort (8 bits/pass, 8 passes) — stable, O(n) memory.
void radix_sort(std::vector<std::uint64_t>& keys);

}  // namespace rb::accel
