// AVX2 kernel table: 4×int64 / 4×f64 lanes. Selection kernels use
// compare-mask + compress-store (movemask → 8-entry permute LUT); the hash
// probe is a vertical multiplicative hash + gather loop over the
// open-addressing slot array; the f64 min runs four independent vminpd
// chains and first_le_f64 tests eight lanes per movemask. Compiled with
// -mavx2 -mpopcnt only for this translation unit; the dispatcher never
// selects this table unless CPUID reports AVX2.

#include "accel/simd/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace rb::accel::simd {

namespace {

/// Permutation LUT: for each 8-bit compare mask, the lane order that packs
/// the selected 32-bit elements to the front (unused lanes don't matter —
/// the store is overwritten or past-the-count).
struct PermLut {
  alignas(32) std::uint32_t perm[256][8];
};

constexpr PermLut make_perm_lut() {
  PermLut lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int n = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if ((mask >> bit) & 1) lut.perm[mask][n++] = static_cast<std::uint32_t>(bit);
    }
    for (; n < 8; ++n) lut.perm[mask][n] = 0;
  }
  return lut;
}

constexpr PermLut kLut = make_perm_lut();

/// Low 64 bits of a 64×64 multiply per lane (AVX2 has no mullo_epi64):
/// a*b = lo(a)·lo(b) + ((lo(a)·hi(b) + hi(a)·lo(b)) << 32).
inline __m256i mul64_lo(__m256i a, __m256i b) noexcept {
  const __m256i b_swap = _mm256_shuffle_epi32(b, 0xB1);   // hi<->lo per lane
  const __m256i cross = _mm256_mullo_epi32(a, b_swap);    // a_lo·b_hi, a_hi·b_lo
  const __m256i cross_sum =
      _mm256_add_epi32(cross, _mm256_shuffle_epi32(cross, 0xB1));
  const __m256i cross_hi = _mm256_slli_epi64(cross_sum, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);              // lo(a)·lo(b), 64-bit
  return _mm256_add_epi64(lo, cross_hi);
}

/// Mask of lanes with lo <= v < hi: !(lo > v) & (hi > v).
inline __m256i between_mask(__m256i v, __m256i vlo, __m256i vhi) noexcept {
  return _mm256_andnot_si256(_mm256_cmpgt_epi64(vlo, v),
                             _mm256_cmpgt_epi64(vhi, v));
}

// Selection kernels share one shape: two 4-lane compares build an 8-bit
// mask, an 8-entry permute LUT packs the matching indices to the front,
// and the output cursor advances by popcount. The 32-byte store stays
// inside out[0, n): m <= i at every iteration and the loop requires
// i + 8 <= n.
std::size_t select_between_avx2(const std::int64_t* values, std::size_t n,
                                std::int64_t lo, std::int64_t hi,
                                std::uint32_t* out) noexcept {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  std::size_t m = 0;
  std::size_t i = 0;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; i + 8 <= n; i += 8) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i + 4));
    const int bits =
        _mm256_movemask_pd(_mm256_castsi256_pd(between_mask(a, vlo, vhi))) |
        (_mm256_movemask_pd(_mm256_castsi256_pd(between_mask(b, vlo, vhi)))
         << 4);
    const __m256i idx =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)), iota);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        idx, _mm256_load_si256(
                 reinterpret_cast<const __m256i*>(kLut.perm[bits])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m), packed);
    m += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(bits)));
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] >= lo && values[i] < hi);
  }
  return m;
}

std::size_t select_greater_avx2(const std::int64_t* values, std::size_t n,
                                std::int64_t threshold,
                                std::uint32_t* out) noexcept {
  const __m256i vt = _mm256_set1_epi64x(threshold);
  std::size_t m = 0;
  std::size_t i = 0;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; i + 8 <= n; i += 8) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i + 4));
    const int bits =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, vt))) |
        (_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(b, vt)))
         << 4);
    const __m256i idx =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)), iota);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        idx, _mm256_load_si256(
                 reinterpret_cast<const __m256i*>(kLut.perm[bits])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m), packed);
    m += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(bits)));
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] > threshold);
  }
  return m;
}

std::size_t select_less_avx2(const std::int64_t* values, std::size_t n,
                             std::int64_t threshold,
                             std::uint32_t* out) noexcept {
  const __m256i vt = _mm256_set1_epi64x(threshold);
  std::size_t m = 0;
  std::size_t i = 0;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; i + 8 <= n; i += 8) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i + 4));
    const int bits =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vt, a))) |
        (_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vt, b)))
         << 4);
    const __m256i idx =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)), iota);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        idx, _mm256_load_si256(
                 reinterpret_cast<const __m256i*>(kLut.perm[bits])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m), packed);
    m += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(bits)));
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] < threshold);
  }
  return m;
}

void hash_find_batch_avx2(const std::uint64_t* slot_words, std::uint64_t mask,
                          const std::uint64_t* keys, std::size_t n,
                          std::uint64_t* values, std::uint8_t* found) noexcept {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vmul = _mm256_set1_epi64x(static_cast<long long>(kHashMul));
  const __m256i vone = _mm256_set1_epi64x(1);
  const auto* base = reinterpret_cast<const long long*>(slot_words);

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    __m256i pos = _mm256_and_si256(mul64_lo(k, vmul), vmask);
    __m256i vals = vzero;
    __m256i fnd = vzero;
    __m256i active = _mm256_set1_epi64x(-1);
    while (_mm256_movemask_epi8(active) != 0) {
      const __m256i widx = _mm256_slli_epi64(pos, 1);
      const __m256i slot_keys =
          _mm256_mask_i64gather_epi64(vzero, base, widx, active, 8);
      const __m256i empty =
          _mm256_and_si256(_mm256_cmpeq_epi64(slot_keys, vzero), active);
      // An empty slot ends the probe even for key 0, which it "equals".
      const __m256i eq = _mm256_andnot_si256(
          empty, _mm256_and_si256(_mm256_cmpeq_epi64(slot_keys, k), active));
      if (_mm256_movemask_epi8(eq) != 0) {
        const __m256i slot_vals = _mm256_mask_i64gather_epi64(
            vzero, base, _mm256_or_si256(widx, vone), eq, 8);
        vals = _mm256_blendv_epi8(vals, slot_vals, eq);
        fnd = _mm256_or_si256(fnd, eq);
      }
      active = _mm256_andnot_si256(_mm256_or_si256(eq, empty), active);
      pos = _mm256_and_si256(_mm256_add_epi64(pos, vone), vmask);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(values + i), vals);
    const int fb = _mm256_movemask_pd(_mm256_castsi256_pd(fnd));
    found[i + 0] = static_cast<std::uint8_t>(fb & 1);
    found[i + 1] = static_cast<std::uint8_t>((fb >> 1) & 1);
    found[i + 2] = static_cast<std::uint8_t>((fb >> 2) & 1);
    found[i + 3] = static_cast<std::uint8_t>((fb >> 3) & 1);
  }
  // Scalar tail, sharing the scalar table's exact probe.
  if (i < n) {
    scalar_kernels().hash_find_batch(slot_words, mask, keys + i, n - i,
                                     values + i, found + i);
  }
}

double min_f64_avx2(const double* values, std::size_t n) noexcept {
  const __m256d vinf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d m0 = vinf, m1 = vinf, m2 = vinf, m3 = vinf;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    m0 = _mm256_min_pd(m0, _mm256_loadu_pd(values + i));
    m1 = _mm256_min_pd(m1, _mm256_loadu_pd(values + i + 4));
    m2 = _mm256_min_pd(m2, _mm256_loadu_pd(values + i + 8));
    m3 = _mm256_min_pd(m3, _mm256_loadu_pd(values + i + 12));
  }
  for (; i + 4 <= n; i += 4) {
    m0 = _mm256_min_pd(m0, _mm256_loadu_pd(values + i));
  }
  m0 = _mm256_min_pd(_mm256_min_pd(m0, m1), _mm256_min_pd(m2, m3));
  __m128d h = _mm_min_pd(_mm256_castpd256_pd128(m0),
                         _mm256_extractf128_pd(m0, 1));
  h = _mm_min_sd(h, _mm_unpackhi_pd(h, h));
  double m = _mm_cvtsd_f64(h);
  for (; i < n; ++i) m = values[i] < m ? values[i] : m;
  return m;
}

std::size_t first_le_f64_avx2(const double* values, std::size_t n,
                              double threshold) noexcept {
  const __m256d vt = _mm256_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int bits =
        _mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(values + i), vt, _CMP_LE_OQ)) |
        (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(values + i + 4),
                                          vt, _CMP_LE_OQ))
         << 4);
    if (bits != 0) {
      return i + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(bits)));
    }
  }
  for (; i < n; ++i) {
    if (values[i] <= threshold) return i;
  }
  return n;
}

constexpr Kernels kAvx2Kernels{Isa::kAvx2,
                               select_between_avx2,
                               select_greater_avx2,
                               select_less_avx2,
                               hash_find_batch_avx2,
                               min_f64_avx2,
                               first_le_f64_avx2};
static_assert(complete(kAvx2Kernels));

}  // namespace

namespace detail {
const Kernels* avx2_table() noexcept { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace rb::accel::simd

#else  // !__AVX2__ (non-x86 build or compiler without the flag)

namespace rb::accel::simd::detail {
const Kernels* avx2_table() noexcept { return nullptr; }
}  // namespace rb::accel::simd::detail

#endif
