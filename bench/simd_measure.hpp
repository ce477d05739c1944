#pragma once
// Measured tuned-vs-scalar kernel gaps, shared by E2, E8 and micro-blocks:
// the dispatched SIMD kernel is timed against its scalar twin on the
// running CPU, so the benches report measured numbers wherever a SIMD unit
// exists and fall back to the modeled constants (nullopt here) elsewhere.
//
// Kernels are timed on 64-byte-aligned, cache-resident buffers: this host
// class sustains about one 64B load per cycle and an unaligned 64B load
// splits two cache lines, halving effective L1 bandwidth; DRAM-resident
// sizes converge on memory bandwidth and measure the machine, not the code.

#include <cstdint>
#include <cstdlib>
#include <optional>

#include "accel/simd/simd.hpp"
#include "bench_util.hpp"
#include "sim/random.hpp"

namespace rb::bench {

/// 64-byte-aligned, uninitialized array of `n` T.
template <typename T>
struct Aligned {
  explicit Aligned(std::size_t n)
      : p{static_cast<T*>(
            std::aligned_alloc(64, ((n * sizeof(T) + 63) / 64) * 64))} {}
  ~Aligned() { std::free(p); }
  Aligned(const Aligned&) = delete;
  Aligned& operator=(const Aligned&) = delete;
  T* p;
};

/// A scan column: `n` values uniform in [0, 1000), so the [250, 750) range
/// the scan benches select keeps ~50% of the rows.
inline void fill_scan_column(Aligned<std::int64_t>& values, std::size_t n,
                             std::uint64_t seed) {
  sim::Rng rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    values.p[i] = static_cast<std::int64_t>(rng.uniform_index(1000));
  }
}

struct MeasuredKernel {
  accel::simd::Isa isa = accel::simd::Isa::kScalar;  // the tuned ISA timed
  double scalar_ms = 0.0;
  double tuned_ms = 0.0;
  double speedup = 1.0;  // scalar_ms / tuned_ms
};

/// Per-rep time of `rep(kernels)` under the scalar table, then under the
/// best supported ISA: the best of 7 samples of `reps` reps each. nullopt
/// when the best ISA is scalar or cannot be activated. Restores the active
/// ISA on exit.
template <typename Rep>
std::optional<MeasuredKernel> scalar_vs_best(int reps, const Rep& rep) {
  const auto per_rep_ms = [&] {
    const auto& k = accel::simd::kernels();
    return best_ms(7, [&] {
             for (int r = 0; r < reps; ++r) rep(k);
           }) /
           reps;
  };
  MeasuredKernel m;
  m.isa = accel::simd::best_supported();
  {
    const accel::simd::IsaGuard scalar{accel::simd::Isa::kScalar};
    m.scalar_ms = per_rep_ms();
  }
  const accel::simd::IsaGuard tuned{m.isa};
  if (!tuned.ok()) return std::nullopt;
  m.tuned_ms = per_rep_ms();
  m.speedup = m.tuned_ms > 0.0 ? m.scalar_ms / m.tuned_ms : 1.0;
  return m;
}

/// Time select_between (scalar vs best ISA) over `rows` int64 values with
/// ~50% selectivity. nullopt on scalar-only hosts.
inline std::optional<MeasuredKernel> measure_select_scan(std::uint64_t rows) {
  if (accel::simd::best_supported() == accel::simd::Isa::kScalar) {
    return std::nullopt;
  }
  Aligned<std::int64_t> values{rows};
  fill_scan_column(values, rows, 42);
  Aligned<std::uint32_t> out{rows};
  // Keep each timed sample around a millisecond even for L1-resident row
  // counts; per-rep times come out of the division in scalar_vs_best.
  const int reps = static_cast<int>((1u << 22) / rows + 1);
  volatile std::size_t sink = 0;
  return scalar_vs_best(reps, [&](const accel::simd::Kernels& k) {
    sink = k.select_between(values.p, rows, 250, 750, out.p);
  });
}

/// Time hash_find_batch (scalar vs best ISA): probe `probe_rows` keys
/// (~50% hit rate) against a HashTable64-shaped slot array. nullopt on
/// scalar-only hosts.
inline std::optional<MeasuredKernel> measure_join_probe(
    std::uint64_t probe_rows) {
  if (accel::simd::best_supported() == accel::simd::Isa::kScalar) {
    return std::nullopt;
  }
  // Build a HashTable64-shaped slot array directly: power-of-two capacity,
  // load factor <= 0.5, multiplicative hashing + linear probing.
  const std::uint64_t build_rows = probe_rows / 2;
  std::uint64_t capacity = 16;
  while (capacity < build_rows * 2) capacity *= 2;
  const std::uint64_t mask = capacity - 1;
  Aligned<std::uint64_t> slots{capacity * 2};
  for (std::uint64_t i = 0; i < capacity * 2; ++i) slots.p[i] = 0;
  for (std::uint64_t i = 0; i < build_rows; ++i) {
    const std::uint64_t key = i + 1;  // non-zero keys
    std::uint64_t pos = (key * accel::simd::kHashMul) & mask;
    while (slots.p[pos * 2] != accel::simd::kHashEmpty) pos = (pos + 1) & mask;
    slots.p[pos * 2] = key;
    slots.p[pos * 2 + 1] = i;
  }

  // ~50% hit rate: half the probe keys exist, half miss.
  Aligned<std::uint64_t> keys{probe_rows};
  sim::Rng rng{7};
  for (std::uint64_t i = 0; i < probe_rows; ++i) {
    const std::uint64_t r = rng();
    keys.p[i] =
        (r & 1) != 0 ? (r % build_rows) + 1 : build_rows + 1 + (r % build_rows);
  }
  Aligned<std::uint64_t> values{probe_rows};
  Aligned<std::uint8_t> found{probe_rows};

  const int reps = static_cast<int>((1u << 19) / probe_rows + 1);
  return scalar_vs_best(reps, [&](const accel::simd::Kernels& k) {
    k.hash_find_batch(slots.p, mask, keys.p, probe_rows, values.p, found.p);
  });
}

}  // namespace rb::bench
