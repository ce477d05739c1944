#pragma once
// Runtime-dispatched SIMD kernel layer for the analytics building blocks
// (Rec 10: replace "often-required functional building blocks" with tuned
// implementations) and the fabric's max-min solver. One portable interface
// — a table of kernel function pointers — backed by per-ISA implementations
// (AVX2, AVX-512, NEON) with the scalar code as the always-correct fallback.
//
// Dispatch happens once, on first use: CPUID/feature detection picks the
// widest ISA both the CPU and this build support. The RB_SIMD environment
// variable ({scalar,avx2,avx512,neon}) overrides the choice for testing
// (forced-scalar CI legs, differential suites); an unsupported request
// falls back to the best supported level with a one-time stderr warning.
// set_isa() is the in-process test hook the differential tests use to walk
// every reachable level without respawning.
//
// Kernel contracts are bit-exact with the scalar twins: identical outputs
// for identical inputs on every ISA, including key 0 (never in a slot),
// int64 boundary values, and ascending selection-index order. The
// differential tests in tests/accel/test_simd_differential.cpp enforce
// this.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace rb::accel::simd {

/// Open-addressing table constants shared with accel::HashTable64 so the
/// vectorized probe hashes exactly like the scalar one.
inline constexpr std::uint64_t kHashEmpty = 0;
inline constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

const char* to_string(Isa isa) noexcept;

/// Parse an RB_SIMD-style name; nullopt on unknown input.
std::optional<Isa> parse_isa(std::string_view name) noexcept;

/// Whether the running CPU *and* this build can execute `isa` kernels.
bool supported(Isa isa) noexcept;

/// Widest supported level (kScalar when no SIMD unit is usable).
Isa best_supported() noexcept;

/// Every supported level, kScalar first: the levels a differential test or
/// a per-ISA bench sweep walks through set_isa().
std::vector<Isa> reachable_isas();

/// Per-ISA kernel table. All kernels are total functions over their inputs
/// (n == 0 is legal) and never allocate; callers own every buffer.
struct Kernels {
  Isa isa = Isa::kScalar;

  /// Write the indices i (ascending, 0-based) with lo <= values[i] < hi
  /// into `out` (capacity >= n); returns the match count.
  std::size_t (*select_between)(const std::int64_t* values, std::size_t n,
                                std::int64_t lo, std::int64_t hi,
                                std::uint32_t* out) noexcept;

  /// Write the indices i with values[i] > threshold into `out`
  /// (capacity >= n); returns the match count. The top-k sift filter.
  std::size_t (*select_greater)(const std::int64_t* values, std::size_t n,
                                std::int64_t threshold,
                                std::uint32_t* out) noexcept;

  /// Write the indices i with values[i] < threshold into `out`.
  std::size_t (*select_less)(const std::int64_t* values, std::size_t n,
                             std::int64_t threshold,
                             std::uint32_t* out) noexcept;

  /// Vertical probe of an open-addressing HashTable64 slot array:
  /// `slot_words` is the raw {key, value} pair array ((mask+1)*2 words),
  /// `mask` the capacity-1 power-of-two mask. For each of the n keys:
  /// found[i] = 1 and values[i] = stored value when present, else
  /// found[i] = 0 and values[i] = 0. Key 0 marks an empty slot, so it is
  /// never found here (HashTable64 keeps it out of band). Multiplicative
  /// hashing + linear probing, gather-based on the wide ISAs.
  void (*hash_find_batch)(const std::uint64_t* slot_words, std::uint64_t mask,
                          const std::uint64_t* keys, std::size_t n,
                          std::uint64_t* values, std::uint8_t* found) noexcept;

  // The two f64 kernels take no NaN and no -0.0 (threshold included): the
  // vector min instructions (x86 vminpd, NEON vminq_f64) treat NaN and the
  // two zeros differently from `v < m ? v : m`, so with either in the input
  // the ISAs could disagree. The max-min solver's bottleneck shares,
  // residual / unfrozen >= +0.0 or +inf once saturated, never hold either.

  /// Smallest of values[0, n); +inf for n == 0.
  double (*min_f64)(const double* values, std::size_t n) noexcept;

  /// The first i with values[i] <= threshold, or n when there is none.
  std::size_t (*first_le_f64)(const double* values, std::size_t n,
                              double threshold) noexcept;
};

/// True when every kernel slot of `k` is filled. Aggregate initialization
/// null-fills the trailing members a table leaves out, so a table that
/// forgets a kernel would compile and crash on its first call; each ISA
/// file static_asserts this on its table.
constexpr bool complete(const Kernels& k) noexcept {
  return k.select_between != nullptr && k.select_greater != nullptr &&
         k.select_less != nullptr && k.hash_find_batch != nullptr &&
         k.min_f64 != nullptr && k.first_le_f64 != nullptr;
}

/// The active kernel table. First call resolves it: RB_SIMD override if
/// set, else best_supported(). Hot paths should cache the reference per
/// operator open()/call, not per row.
const Kernels& kernels() noexcept;

/// The scalar table, always available — the differential oracle.
const Kernels& scalar_kernels() noexcept;

/// Active ISA (== kernels().isa).
Isa active_isa() noexcept;

/// Test hook: force the active table. Returns false (no change) when the
/// requested level is unsupported on this CPU/build. Updates the
/// accel.simd_isa gauge when observability is enabled.
bool set_isa(Isa isa) noexcept;

/// Scope guard for set_isa(): restores the entry ISA when the scope exits,
/// also when a failed test assertion returns early. Given `want`, it first
/// switches to that level; ok() reports whether the switch took.
class IsaGuard {
 public:
  explicit IsaGuard(std::optional<Isa> want = std::nullopt) noexcept
      : prev_{active_isa()}, ok_{!want || set_isa(*want)} {}
  ~IsaGuard() { set_isa(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
  bool ok() const noexcept { return ok_; }

 private:
  Isa prev_;
  bool ok_;
};

namespace detail {
// Per-ISA table getters; an ISA not compiled into this binary returns
// nullptr and is reported unsupported.
const Kernels* scalar_table() noexcept;
const Kernels* avx2_table() noexcept;
const Kernels* avx512_table() noexcept;
const Kernels* neon_table() noexcept;
}  // namespace detail

}  // namespace rb::accel::simd
