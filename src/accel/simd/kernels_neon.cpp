// NEON kernel table: 2×int64 lanes on aarch64. No gather or compress
// instructions exist on NEON, so the selection kernels use compare +
// narrow-to-mask with a predicated two-lane emit, and the hash probe
// stays scalar (gather-bound; the scalar loop is already optimal there).
// The max-min solver's f64 kernels forward to scalar as well, until an
// aarch64 runner can test and time a vector body.

#include "accel/simd/simd.hpp"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

namespace rb::accel::simd {

namespace {

std::size_t select_between_neon(const std::int64_t* values, std::size_t n,
                                std::int64_t lo, std::int64_t hi,
                                std::uint32_t* out) noexcept {
  const int64x2_t vlo = vdupq_n_s64(lo);
  const int64x2_t vhi = vdupq_n_s64(hi);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t v = vld1q_s64(values + i);
    // lo <= v && v < hi  ==  (v >= lo) & ~(v >= hi)
    const uint64x2_t ge_lo = vcgeq_s64(v, vlo);
    const uint64x2_t ge_hi = vcgeq_s64(v, vhi);
    const uint64x2_t mask = vbicq_u64(ge_lo, ge_hi);
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(vgetq_lane_u64(mask, 0) & 1);
    out[m] = static_cast<std::uint32_t>(i + 1);
    m += static_cast<std::size_t>(vgetq_lane_u64(mask, 1) & 1);
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] >= lo && values[i] < hi);
  }
  return m;
}

std::size_t select_greater_neon(const std::int64_t* values, std::size_t n,
                                std::int64_t threshold,
                                std::uint32_t* out) noexcept {
  const int64x2_t vt = vdupq_n_s64(threshold);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t mask = vcgtq_s64(vld1q_s64(values + i), vt);
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(vgetq_lane_u64(mask, 0) & 1);
    out[m] = static_cast<std::uint32_t>(i + 1);
    m += static_cast<std::size_t>(vgetq_lane_u64(mask, 1) & 1);
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] > threshold);
  }
  return m;
}

std::size_t select_less_neon(const std::int64_t* values, std::size_t n,
                             std::int64_t threshold,
                             std::uint32_t* out) noexcept {
  const int64x2_t vt = vdupq_n_s64(threshold);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t mask = vcltq_s64(vld1q_s64(values + i), vt);
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(vgetq_lane_u64(mask, 0) & 1);
    out[m] = static_cast<std::uint32_t>(i + 1);
    m += static_cast<std::size_t>(vgetq_lane_u64(mask, 1) & 1);
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] < threshold);
  }
  return m;
}

void hash_find_batch_neon(const std::uint64_t* slot_words, std::uint64_t mask,
                          const std::uint64_t* keys, std::size_t n,
                          std::uint64_t* values, std::uint8_t* found) noexcept {
  // Gather-bound with 2 lanes: the scalar probe wins. Keep it exact.
  scalar_kernels().hash_find_batch(slot_words, mask, keys, n, values, found);
}

double min_f64_neon(const double* values, std::size_t n) noexcept {
  return scalar_kernels().min_f64(values, n);
}

std::size_t first_le_f64_neon(const double* values, std::size_t n,
                              double threshold) noexcept {
  return scalar_kernels().first_le_f64(values, n, threshold);
}

constexpr Kernels kNeonKernels{Isa::kNeon,
                               select_between_neon,
                               select_greater_neon,
                               select_less_neon,
                               hash_find_batch_neon,
                               min_f64_neon,
                               first_le_f64_neon};
static_assert(complete(kNeonKernels));

}  // namespace

namespace detail {
const Kernels* neon_table() noexcept { return &kNeonKernels; }
}  // namespace detail

}  // namespace rb::accel::simd

#else  // not an ARM build

namespace rb::accel::simd::detail {
const Kernels* neon_table() noexcept { return nullptr; }
}  // namespace rb::accel::simd::detail

#endif
