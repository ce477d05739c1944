// AVX-512 kernel table: 8×int64 / 8×f64 lanes, mask registers, native
// 64-bit multiply (AVX512DQ) and compress-store (AVX512F+VL) — no permute
// LUT needed; the f64 kernels finish their tails with masked loads.
// Compiled with -mavx512f/dq/bw/vl only for this translation unit; the
// dispatcher requires all four CPUID bits before selecting it.

#include "accel/simd/simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <limits>

// GCC 12's AVX-512 headers route several intrinsics (slli, gather) through
// _mm512_undefined_epi32, which -Wmaybe-uninitialized flags on inlining.
// False positive in the vendor header, not in this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace rb::accel::simd {

namespace {

// lo <= v < hi as one unsigned compare: for hi > lo,
// (u64)(v - lo) < (u64)(hi - lo) in two's complement. Halves the 512-bit
// compare count (port-5 bound on SKX-family cores). The hi <= lo case
// (always-empty range) is handled by the callers' early return.
inline __mmask8 between_mask(__m512i v, __m512i vlo, __m512i vrange) noexcept {
  return _mm512_cmp_epu64_mask(_mm512_sub_epi64(v, vlo), vrange,
                               _MM_CMPINT_LT);
}

std::size_t select_between_avx512(const std::int64_t* values, std::size_t n,
                                  std::int64_t lo, std::int64_t hi,
                                  std::uint32_t* out) noexcept {
  if (hi <= lo) return 0;
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vrange = _mm512_set1_epi64(static_cast<long long>(
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo)));
  // 16 rows per iteration: two 8-lane compares feed one 16-lane
  // compress-store of uint32 indices. The index vector is a running iota
  // (lane L holds i + L), so no per-iteration broadcast from a GPR.
  __m512i vidx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  const __m512i v16 = _mm512_set1_epi32(16);
  const __m512i v32 = _mm512_set1_epi32(32);
  std::size_t m = 0;
  std::size_t i = 0;
  // 32 rows per iteration, two independent compress-stores. Compressing to
  // a register and storing all 64 bytes is cheaper than the microcoded
  // masked compress-store, and in bounds because m <= i and i + 32 <= n,
  // so out + m has >= 32 writable slots; lanes past the match count hold
  // garbage that the next store (or the out[0, m) contract) discards. The
  // two popcounts only meet in a 1-cycle add chain, so the store-address
  // dependency on m doesn't serialize whole iterations.
  for (; i + 32 <= n; i += 32) {
    const __m512i a0 = _mm512_loadu_si512(values + i);
    const __m512i a1 = _mm512_loadu_si512(values + i + 8);
    const __m512i b0 = _mm512_loadu_si512(values + i + 16);
    const __m512i b1 = _mm512_loadu_si512(values + i + 24);
    const __mmask16 mask_a = static_cast<__mmask16>(
        static_cast<unsigned>(between_mask(a0, vlo, vrange)) |
        (static_cast<unsigned>(between_mask(a1, vlo, vrange)) << 8));
    const __mmask16 mask_b = static_cast<__mmask16>(
        static_cast<unsigned>(between_mask(b0, vlo, vrange)) |
        (static_cast<unsigned>(between_mask(b1, vlo, vrange)) << 8));
    const __m512i vidx_b = _mm512_add_epi32(vidx, v16);
    _mm512_storeu_si512(out + m, _mm512_maskz_compress_epi32(mask_a, vidx));
    const std::size_t ma = static_cast<std::size_t>(__builtin_popcount(mask_a));
    _mm512_storeu_si512(out + m + ma,
                        _mm512_maskz_compress_epi32(mask_b, vidx_b));
    m += ma + static_cast<std::size_t>(__builtin_popcount(mask_b));
    vidx = _mm512_add_epi32(vidx, v32);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512i a = _mm512_loadu_si512(values + i);
    const __m512i b = _mm512_loadu_si512(values + i + 8);
    const __mmask16 mask = static_cast<__mmask16>(
        static_cast<unsigned>(between_mask(a, vlo, vrange)) |
        (static_cast<unsigned>(between_mask(b, vlo, vrange)) << 8));
    _mm512_storeu_si512(out + m, _mm512_maskz_compress_epi32(mask, vidx));
    m += static_cast<std::size_t>(__builtin_popcount(mask));
    vidx = _mm512_add_epi32(vidx, v16);
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] >= lo && values[i] < hi);
  }
  return m;
}

std::size_t select_greater_avx512(const std::int64_t* values, std::size_t n,
                                  std::int64_t threshold,
                                  std::uint32_t* out) noexcept {
  const __m512i vt = _mm512_set1_epi64(threshold);
  __m512i vidx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  const __m512i v16 = _mm512_set1_epi32(16);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i a = _mm512_loadu_si512(values + i);
    const __m512i b = _mm512_loadu_si512(values + i + 8);
    const __mmask16 mask = static_cast<__mmask16>(
        static_cast<unsigned>(_mm512_cmp_epi64_mask(a, vt, _MM_CMPINT_NLE)) |
        (static_cast<unsigned>(_mm512_cmp_epi64_mask(b, vt, _MM_CMPINT_NLE))
         << 8));
    _mm512_storeu_si512(out + m, _mm512_maskz_compress_epi32(mask, vidx));
    m += static_cast<std::size_t>(__builtin_popcount(mask));
    vidx = _mm512_add_epi32(vidx, v16);
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] > threshold);
  }
  return m;
}

std::size_t select_less_avx512(const std::int64_t* values, std::size_t n,
                               std::int64_t threshold,
                               std::uint32_t* out) noexcept {
  const __m512i vt = _mm512_set1_epi64(threshold);
  __m512i vidx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  const __m512i v16 = _mm512_set1_epi32(16);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i a = _mm512_loadu_si512(values + i);
    const __m512i b = _mm512_loadu_si512(values + i + 8);
    const __mmask16 mask = static_cast<__mmask16>(
        static_cast<unsigned>(_mm512_cmp_epi64_mask(a, vt, _MM_CMPINT_LT)) |
        (static_cast<unsigned>(_mm512_cmp_epi64_mask(b, vt, _MM_CMPINT_LT))
         << 8));
    _mm512_storeu_si512(out + m, _mm512_maskz_compress_epi32(mask, vidx));
    m += static_cast<std::size_t>(__builtin_popcount(mask));
    vidx = _mm512_add_epi32(vidx, v16);
  }
  for (; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += static_cast<std::size_t>(values[i] < threshold);
  }
  return m;
}

void hash_find_batch_avx512(const std::uint64_t* slot_words,
                            std::uint64_t mask, const std::uint64_t* keys,
                            std::size_t n, std::uint64_t* values,
                            std::uint8_t* found) noexcept {
  const __m512i vzero = _mm512_setzero_si512();
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i vmul = _mm512_set1_epi64(static_cast<long long>(kHashMul));
  const __m512i vone = _mm512_set1_epi64(1);

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i k = _mm512_loadu_si512(keys + i);
    __m512i pos =
        _mm512_and_si512(_mm512_mullo_epi64(k, vmul), vmask);
    __m512i vals = vzero;
    __mmask8 fnd = 0;
    __mmask8 active = 0xFF;
    while (active != 0) {
      const __m512i widx = _mm512_slli_epi64(pos, 1);
      const __m512i slot_keys = _mm512_mask_i64gather_epi64(
          vzero, active, widx, slot_words, 8);
      const __mmask8 empty =
          _mm512_mask_cmpeq_epi64_mask(active, slot_keys, vzero);
      // An empty slot ends the probe even for key 0, which it "equals".
      const __mmask8 eq = _mm512_mask_cmpeq_epi64_mask(
          static_cast<__mmask8>(active & ~empty), slot_keys, k);
      if (eq != 0) {
        vals = _mm512_mask_i64gather_epi64(
            vals, eq, _mm512_or_si512(widx, vone), slot_words, 8);
        fnd |= eq;
      }
      active = static_cast<__mmask8>(active & ~(eq | empty));
      pos = _mm512_and_si512(_mm512_add_epi64(pos, vone), vmask);
    }
    _mm512_storeu_si512(values + i, vals);
    for (int lane = 0; lane < 8; ++lane) {
      found[i + static_cast<std::size_t>(lane)] =
          static_cast<std::uint8_t>((fnd >> lane) & 1);
    }
  }
  if (i < n) {
    scalar_kernels().hash_find_batch(slot_words, mask, keys + i, n - i,
                                     values + i, found + i);
  }
}

/// Lanes [0, r) of an 8-lane mask, for a tail of r < 8 elements.
inline __mmask8 tail_mask(std::size_t r) noexcept {
  return static_cast<__mmask8>((1u << r) - 1u);
}

double min_f64_avx512(const double* values, std::size_t n) noexcept {
  const __m512d vinf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __m512d m0 = vinf, m1 = vinf, m2 = vinf, m3 = vinf;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm512_min_pd(m0, _mm512_loadu_pd(values + i));
    m1 = _mm512_min_pd(m1, _mm512_loadu_pd(values + i + 8));
    m2 = _mm512_min_pd(m2, _mm512_loadu_pd(values + i + 16));
    m3 = _mm512_min_pd(m3, _mm512_loadu_pd(values + i + 24));
  }
  for (; i + 8 <= n; i += 8) {
    m0 = _mm512_min_pd(m0, _mm512_loadu_pd(values + i));
  }
  if (i < n) {
    // Lanes past n load +inf, which never lowers the minimum.
    m1 = _mm512_min_pd(
        m1, _mm512_mask_loadu_pd(vinf, tail_mask(n - i), values + i));
  }
  return _mm512_reduce_min_pd(
      _mm512_min_pd(_mm512_min_pd(m0, m1), _mm512_min_pd(m2, m3)));
}

std::size_t first_le_f64_avx512(const double* values, std::size_t n,
                                double threshold) noexcept {
  const __m512d vt = _mm512_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const unsigned bits =
        static_cast<unsigned>(_mm512_cmp_pd_mask(_mm512_loadu_pd(values + i),
                                                 vt, _CMP_LE_OQ)) |
        (static_cast<unsigned>(_mm512_cmp_pd_mask(
             _mm512_loadu_pd(values + i + 8), vt, _CMP_LE_OQ))
         << 8);
    if (bits != 0) return i + static_cast<std::size_t>(__builtin_ctz(bits));
  }
  for (; i < n; i += 8) {
    const __mmask8 lanes = n - i >= 8 ? __mmask8{0xFF} : tail_mask(n - i);
    const unsigned bits = _mm512_mask_cmp_pd_mask(
        lanes, _mm512_maskz_loadu_pd(lanes, values + i), vt, _CMP_LE_OQ);
    if (bits != 0) return i + static_cast<std::size_t>(__builtin_ctz(bits));
  }
  return n;
}

constexpr Kernels kAvx512Kernels{Isa::kAvx512,
                                 select_between_avx512,
                                 select_greater_avx512,
                                 select_less_avx512,
                                 hash_find_batch_avx512,
                                 min_f64_avx512,
                                 first_le_f64_avx512};
static_assert(complete(kAvx512Kernels));

}  // namespace

namespace detail {
const Kernels* avx512_table() noexcept { return &kAvx512Kernels; }
}  // namespace detail

}  // namespace rb::accel::simd

#else  // AVX-512 subset not available in this build

namespace rb::accel::simd::detail {
const Kernels* avx512_table() noexcept { return nullptr; }
}  // namespace rb::accel::simd::detail

#endif
