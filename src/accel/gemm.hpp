#pragma once
// Dense matrix multiply building block — the kernel under every DNN layer
// the paper's deep-learning discussion rides on (Sec I: GPU-accelerated
// training, ASIC-accelerated inference). Two CPU implementations expose the
// cache-blocking ablation: the naive triple loop thrashes once B outgrows
// the cache; the tiled version holds a block of B resident.

#include <cstddef>
#include <span>
#include <vector>

namespace rb::accel {

/// C (m x n) = A (m x k) times B (k x n), row-major, C overwritten.
/// Throws std::invalid_argument on size mismatches.
void gemm_naive(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n);

/// Cache-blocked variant (tiles of `tile` x `tile`); identical results up
/// to floating-point addition order.
void gemm_blocked(std::span<const float> a, std::span<const float> b,
                  std::span<float> c, std::size_t m, std::size_t k,
                  std::size_t n, std::size_t tile = 64);

/// Convenience: multiply into a fresh buffer.
std::vector<float> gemm(std::span<const float> a, std::span<const float> b,
                        std::size_t m, std::size_t k, std::size_t n);

}  // namespace rb::accel
