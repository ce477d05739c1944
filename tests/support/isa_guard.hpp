#pragma once
// Scope guard for tests that walk accel::simd::reachable_isas() through
// set_isa(): the kernel differentials (tests/accel) and the fabric's golden
// hashes (tests/net) leave the process on the SIMD level they found, also
// when a failed assertion returns early.

#include "accel/simd/simd.hpp"

namespace rb::test {

/// Restores the entry ISA when a test body returns or throws.
class IsaGuard {
 public:
  IsaGuard() : saved_(accel::simd::active_isa()) {}
  ~IsaGuard() { accel::simd::set_isa(saved_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  accel::simd::Isa saved_;
};

}  // namespace rb::test
