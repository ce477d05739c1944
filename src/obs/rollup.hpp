#pragma once
// Streaming time-series rollups and SLO burn-rate alerting.
//
// The Registry (metrics.hpp) answers "how much, total?"; this module answers
// "how much, *when*?" — the question every control loop (alerting today,
// autoscaling next) actually asks. A WindowedSeries buckets observations
// into fixed-width windows of the caller's clock (the serving plane passes
// sim-time picoseconds) keeping count/sum/min/max/last per window; a Rollup
// is a named registry of such series with JSON export.
//
// On top sits the AlertEngine, implementing Google-SRE-style multi-window
// multi-burn-rate alerting over an SLO error budget. The caller feeds it
// good/bad events; burn rate over a lookback is
//
//     burn = (bad / (good + bad)) / (1 - objective)
//
// i.e. 1.0 = consuming the error budget exactly at the sustainable rate. A
// rule fires when BOTH its short and long lookbacks burn above the
// threshold (the long window proves the problem is real, the short window
// proves it is *still* happening — that combination is what makes the alert
// clear quickly after repair), and clears when the short-window burn drops
// back below. Alerts are typed, timestamped values a bench or autoscaler
// can query — not log lines.
//
// Evaluation is a deterministic pure replay over closed windows, so
// identically-seeded runs produce identical alert timelines (tested).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rb::obs {

/// Aggregates of one time window of one series.
struct WindowStats {
  std::int64_t start = 0;  // window start, caller clock units
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// One named time series bucketed into fixed-width windows.
class WindowedSeries {
 public:
  enum class Kind : std::uint8_t {
    kCounter,  // sum of deltas per window (events/window)
    kGauge,    // last-write-wins level per window
    kValue,    // distribution per window (latencies): count/sum/min/max
  };

  WindowedSeries(std::int64_t window, Kind kind);

  void record(std::int64_t ts, double v) noexcept;

  Kind kind() const noexcept { return kind_; }
  std::int64_t window() const noexcept { return window_; }

  /// Dense snapshot from the first to the last touched window; windows with
  /// no observations appear with count 0 (a gap in a counter series means
  /// rate 0, and the alert math must see it).
  std::vector<WindowStats> windows() const;

  /// Sum of `count` (kCounter: total events) over windows intersecting
  /// [from, to).
  double sum_range(std::int64_t from, std::int64_t to) const;

  void clear() { buckets_.clear(); }

 private:
  std::int64_t window_;
  Kind kind_;
  std::map<std::int64_t, WindowStats> buckets_;  // key = window index
};

/// Named registry of windowed series sharing one window width.
class Rollup {
 public:
  explicit Rollup(std::int64_t window);

  WindowedSeries& counter(std::string_view name);
  WindowedSeries& gauge(std::string_view name);
  WindowedSeries& value(std::string_view name);

  std::int64_t window() const noexcept { return window_; }
  std::vector<std::string> names() const;
  const WindowedSeries* find(std::string_view name) const;

  /// {"window":..., "series":[{name, kind, windows:[{start,count,sum,...}]}]}
  std::string to_json() const;

  void clear();

 private:
  WindowedSeries& find_or_create(std::string_view name,
                                 WindowedSeries::Kind kind);

  std::int64_t window_;
  std::map<std::string, WindowedSeries> series_;
};

/// --- Burn-rate alerting -----------------------------------------------------

/// One multi-window burn-rate rule: fire when both the short and the long
/// lookback burn the error budget faster than `burn_threshold`.
struct BurnRateRule {
  std::string name = "page";
  double burn_threshold = 10.0;   // x the sustainable burn rate
  std::size_t short_windows = 2;  // lookback lengths, in rollup windows
  std::size_t long_windows = 8;
};

struct AlertParams {
  double objective = 0.999;  // SLO success objective; budget = 1 - objective
  std::int64_t window = 0;   // window width, caller clock units (required)
  /// Ignore lookbacks with fewer total events than this (startup noise).
  std::uint64_t min_events = 20;
  std::vector<BurnRateRule> rules;
};

/// One firing of a rule. `cleared_at` is -1 while still active at the end of
/// the evaluated horizon.
struct Alert {
  std::string rule;
  std::int64_t fired_at = 0;
  std::int64_t cleared_at = -1;
  double burn_short = 0.0;  // burn rates at fire time
  double burn_long = 0.0;

  bool active() const noexcept { return cleared_at < 0; }
};

class AlertEngine {
 public:
  explicit AlertEngine(AlertParams params);

  /// Record the outcome of one (or `n`) requests at time `ts`.
  void record_good(std::int64_t ts, std::uint64_t n = 1) noexcept;
  void record_bad(std::int64_t ts, std::uint64_t n = 1) noexcept;

  /// Replay all closed windows up to `horizon` and return the alert
  /// timeline, ordered by fire time. Pure: calling twice returns the same
  /// result; more data extends it.
  std::vector<Alert> alerts(std::int64_t horizon) const;

  const AlertParams& params() const noexcept { return params_; }

  void clear();

 private:
  AlertParams params_;
  WindowedSeries good_;
  WindowedSeries bad_;
};

}  // namespace rb::obs
