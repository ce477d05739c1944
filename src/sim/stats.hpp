#pragma once
// Exact percentiles of recorded samples, used by simulators and benchmark
// harnesses.

#include <cstddef>
#include <vector>

namespace rb::sim {

/// Exact percentile tracker: stores all samples, sorts lazily on query.
/// Suitable for the sample counts in this project (<= tens of millions).
///
/// Empty-tracker semantics (including immediately after clear()):
/// percentile()/mean() and the pXX helpers throw std::logic_error, since a
/// percentile of nothing is a caller bug.
class PercentileTracker {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  /// Percentile in [0, 100] by nearest-rank interpolation.
  /// Throws std::logic_error if no samples were recorded.
  double percentile(double p) const;

  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }
  double mean() const;

  /// Drop every sample; the tracker behaves exactly like a fresh one.
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace rb::sim
