#include "sim/random.hpp"

#include <cmath>
#include <algorithm>
#include <stdexcept>

#include "sim/hash.hpp"

namespace rb::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += kSplitMixGamma;
  return mix64(x);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork() noexcept { return Rng{(*this)()}; }

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::bounded_pareto(double alpha, double lo, double hi) noexcept {
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double product = uniform();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

ZipfDistribution::ZipfDistribution(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument{"ZipfDistribution: n must be > 0"};
  if (s < 0.0) throw std::invalid_argument{"ZipfDistribution: s must be >= 0"};
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against FP rounding
}

std::size_t ZipfDistribution::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfDistribution::pmf(std::size_t k) const {
  if (k >= cdf_.size()) throw std::out_of_range{"ZipfDistribution::pmf"};
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace rb::sim
