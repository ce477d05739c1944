#pragma once
// Streaming statistics used by simulators and benchmark harnesses.

#include <cstddef>
#include <vector>

namespace rb::sim {

/// Numerically stable running mean / variance (Welford) with min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }
  double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Compact distribution summary shared by benches and the metrics exporter
/// (all fields zero for an empty tracker).
struct StatSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Exact percentile tracker: stores all samples, sorts lazily on query.
/// Suitable for the sample counts in this project (<= tens of millions).
///
/// Empty-tracker semantics (including immediately after clear()):
/// percentile()/mean() and the pXX helpers throw std::logic_error, since a
/// percentile of nothing is a caller bug; summary() is the total function —
/// it returns an all-zero StatSummary instead, so exporters and benches can
/// report unconditionally.
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

  /// Count/mean/min/max/p50/p90/p99/p999 in one shot; all zeros when empty.
  StatSummary summary() const;

  /// Drop every sample; the tracker behaves exactly like a fresh one.
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace rb::sim
