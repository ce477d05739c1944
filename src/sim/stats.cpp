#include "sim/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace rb::sim {

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

}  // namespace rb::sim
