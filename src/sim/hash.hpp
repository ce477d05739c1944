#pragma once
// The project's 64-bit hash mixers. ECMP path choice, ring positions, RNG
// seeding, shuffle partitioning and bloom probes all hash through these two
// definitions, so every seeded digest depends on one copy of each.

#include <cstdint>
#include <string_view>

namespace rb::sim {

/// The golden-ratio increment splitmix64 adds before each finalizer call.
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64 finalizer: a stateless, bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// FNV-1a over `bytes` from an offset basis xor-ed with `salt`, then a
/// murmur-style xor-shift-multiply finalizer so the low bits are usable as
/// a table index.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t salt) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ salt;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace rb::sim
