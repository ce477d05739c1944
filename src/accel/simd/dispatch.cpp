// Runtime dispatch: resolve the active kernel table once, on first use.
// Order of precedence: RB_SIMD env override (with fallback + one-time
// stderr warning when the request can't be honored), else the widest ISA
// both the CPU and this build support.

#include "accel/simd/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"

namespace rb::accel::simd {

namespace {

bool cpu_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

const Kernels* table_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_table();
    case Isa::kAvx2:
      return detail::avx2_table();
    case Isa::kAvx512:
      return detail::avx512_table();
    case Isa::kNeon:
      return detail::neon_table();
  }
  return nullptr;
}

void publish_isa_gauge(Isa isa) noexcept {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .gauge("accel.simd_isa")
      .set(static_cast<double>(static_cast<std::uint8_t>(isa)));
}

// The active table pointer. nullptr until the first kernels() /
// active_isa() / set_isa() call resolves it.
std::atomic<const Kernels*> g_active{nullptr};

const Kernels* resolve() noexcept {
  Isa pick = best_supported();
  if (const char* env = std::getenv("RB_SIMD");
      env != nullptr && env[0] != '\0') {
    if (const auto parsed = parse_isa(env); !parsed.has_value()) {
      std::fprintf(stderr,
                   "[accel.simd] RB_SIMD=%s not recognized "
                   "(scalar|avx2|avx512|neon); using %s\n",
                   env, to_string(pick));
    } else if (!supported(*parsed)) {
      std::fprintf(stderr,
                   "[accel.simd] RB_SIMD=%s unsupported on this CPU/build; "
                   "falling back to %s\n",
                   env, to_string(pick));
    } else {
      pick = *parsed;
    }
  }
  const Kernels* table = table_for(pick);
  // Racing first calls may both resolve; either winner yields the same
  // table, so a plain strong CAS keeps one canonical pointer.
  const Kernels* expected = nullptr;
  if (g_active.compare_exchange_strong(expected, table,
                                       std::memory_order_acq_rel)) {
    publish_isa_gauge(table->isa);
    return table;
  }
  return expected;
}

}  // namespace

const char* to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(std::string_view name) noexcept {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  if (name == "neon") return Isa::kNeon;
  return std::nullopt;
}

bool supported(Isa isa) noexcept {
  return table_for(isa) != nullptr && cpu_supports(isa);
}

Isa best_supported() noexcept {
  if (supported(Isa::kAvx512)) return Isa::kAvx512;
  if (supported(Isa::kAvx2)) return Isa::kAvx2;
  if (supported(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

std::vector<Isa> reachable_isas() {
  std::vector<Isa> out{Isa::kScalar};
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (supported(isa)) out.push_back(isa);
  }
  return out;
}

const Kernels& kernels() noexcept {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = resolve();
  return *table;
}

const Kernels& scalar_kernels() noexcept { return *detail::scalar_table(); }

Isa active_isa() noexcept { return kernels().isa; }

bool set_isa(Isa isa) noexcept {
  if (!supported(isa)) return false;
  g_active.store(table_for(isa), std::memory_order_release);
  publish_isa_gauge(isa);
  return true;
}

}  // namespace rb::accel::simd
