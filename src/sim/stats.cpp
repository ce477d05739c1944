#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rb::sim {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double PercentileTracker::percentile(double p) const {
  if (samples_.empty())
    throw std::logic_error{"PercentileTracker::percentile: no samples"};
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument{"percentile: p must be in [0, 100]"};
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double PercentileTracker::mean() const {
  if (samples_.empty())
    throw std::logic_error{"PercentileTracker::mean: no samples"};
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

StatSummary PercentileTracker::summary() const {
  StatSummary s;
  if (samples_.empty()) return s;
  s.count = samples_.size();
  s.mean = mean();
  s.p50 = percentile(50.0);
  s.p90 = percentile(90.0);
  s.p99 = percentile(99.0);
  s.p999 = percentile(99.9);
  // percentile() sorted the samples.
  s.min = samples_.front();
  s.max = samples_.back();
  return s;
}

}  // namespace rb::sim
