// Scalar kernel table — the always-correct fallback and the differential
// oracle every SIMD table is fuzz-compared against. Loops are branch-free
// (predicated) where it pays.

#include "accel/simd/simd.hpp"

#include <limits>

namespace rb::accel::simd {

namespace {

std::size_t select_between_scalar(const std::int64_t* values, std::size_t n,
                                  std::int64_t lo, std::int64_t hi,
                                  std::uint32_t* out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Predicated write: always store, advance conditionally (no branch).
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] >= lo && values[i] < hi);
  }
  return m;
}

std::size_t select_greater_scalar(const std::int64_t* values, std::size_t n,
                                  std::int64_t threshold,
                                  std::uint32_t* out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] > threshold);
  }
  return m;
}

std::size_t select_less_scalar(const std::int64_t* values, std::size_t n,
                               std::int64_t threshold,
                               std::uint32_t* out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] < threshold);
  }
  return m;
}

void hash_find_batch_scalar(const std::uint64_t* slot_words,
                            std::uint64_t mask, const std::uint64_t* keys,
                            std::size_t n, std::uint64_t* values,
                            std::uint8_t* found) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    std::uint64_t pos = (k * kHashMul) & mask;
    for (;;) {
      const std::uint64_t slot_key = slot_words[pos * 2];
      if (slot_key == kHashEmpty) {
        values[i] = 0;
        found[i] = 0;
        break;
      }
      if (slot_key == k) {
        values[i] = slot_words[pos * 2 + 1];
        found[i] = 1;
        break;
      }
      pos = (pos + 1) & mask;
    }
  }
}

double min_f64_scalar(const double* values, std::size_t n) noexcept {
  // Four independent chains instead of one serial compare chain. Without
  // NaN and -0.0 the minimum is exact whatever the order, so splitting the
  // chain changes no result.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = values[i] < m0 ? values[i] : m0;
    m1 = values[i + 1] < m1 ? values[i + 1] : m1;
    m2 = values[i + 2] < m2 ? values[i + 2] : m2;
    m3 = values[i + 3] < m3 ? values[i + 3] : m3;
  }
  for (; i < n; ++i) m0 = values[i] < m0 ? values[i] : m0;
  m0 = m1 < m0 ? m1 : m0;
  m2 = m3 < m2 ? m3 : m2;
  return m2 < m0 ? m2 : m0;
}

std::size_t first_le_f64_scalar(const double* values, std::size_t n,
                                double threshold) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] <= threshold) return i;
  }
  return n;
}

constexpr Kernels kScalarKernels{Isa::kScalar,
                                 select_between_scalar,
                                 select_greater_scalar,
                                 select_less_scalar,
                                 hash_find_batch_scalar,
                                 min_f64_scalar,
                                 first_le_f64_scalar};
static_assert(complete(kScalarKernels));

}  // namespace

namespace detail {
const Kernels* scalar_table() noexcept { return &kScalarKernels; }
}  // namespace detail

}  // namespace rb::accel::simd
