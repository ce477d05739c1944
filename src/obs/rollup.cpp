#include "obs/rollup.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"

namespace rb::obs {

namespace {

std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

const char* kind_name(WindowedSeries::Kind k) noexcept {
  switch (k) {
    case WindowedSeries::Kind::kCounter: return "counter";
    case WindowedSeries::Kind::kGauge: return "gauge";
    case WindowedSeries::Kind::kValue: return "value";
  }
  return "value";
}

}  // namespace

WindowedSeries::WindowedSeries(std::int64_t window, Kind kind)
    : window_(window), kind_(kind) {
  if (window_ <= 0) throw std::invalid_argument{"window width must be > 0"};
}

void WindowedSeries::record(std::int64_t ts, double v) noexcept {
  const std::int64_t idx = floor_div(ts, window_);
  auto [it, inserted] = buckets_.try_emplace(idx);
  WindowStats& w = it->second;
  if (inserted) {
    w.start = idx * window_;
    w.min = v;
    w.max = v;
  } else {
    w.min = std::min(w.min, v);
    w.max = std::max(w.max, v);
  }
  ++w.count;
  w.sum += v;
  w.last = v;
}

std::vector<WindowStats> WindowedSeries::windows() const {
  std::vector<WindowStats> out;
  if (buckets_.empty()) return out;
  const std::int64_t first = buckets_.begin()->first;
  const std::int64_t last = buckets_.rbegin()->first;
  out.reserve(static_cast<std::size_t>(last - first + 1));
  auto it = buckets_.begin();
  for (std::int64_t idx = first; idx <= last; ++idx) {
    if (it != buckets_.end() && it->first == idx) {
      out.push_back(it->second);
      ++it;
    } else {
      WindowStats gap;
      gap.start = idx * window_;
      out.push_back(gap);
    }
  }
  return out;
}

double WindowedSeries::sum_range(std::int64_t from, std::int64_t to) const {
  if (to <= from) return 0.0;
  const std::int64_t lo = floor_div(from, window_);
  const std::int64_t hi = floor_div(to - 1, window_);
  double total = 0.0;
  for (auto it = buckets_.lower_bound(lo);
       it != buckets_.end() && it->first <= hi; ++it) {
    total += static_cast<double>(it->second.count);
  }
  return total;
}

Rollup::Rollup(std::int64_t window) : window_(window) {
  if (window_ <= 0) throw std::invalid_argument{"window width must be > 0"};
}

WindowedSeries& Rollup::find_or_create(std::string_view name,
                                       WindowedSeries::Kind kind) {
  auto it = series_.find(std::string{name});
  if (it != series_.end()) {
    if (it->second.kind() != kind) {
      throw std::invalid_argument{"rollup series kind mismatch: " +
                                  std::string{name}};
    }
    return it->second;
  }
  auto [ins, ok] =
      series_.emplace(std::string{name}, WindowedSeries{window_, kind});
  return ins->second;
}

WindowedSeries& Rollup::counter(std::string_view name) {
  return find_or_create(name, WindowedSeries::Kind::kCounter);
}
WindowedSeries& Rollup::gauge(std::string_view name) {
  return find_or_create(name, WindowedSeries::Kind::kGauge);
}
WindowedSeries& Rollup::value(std::string_view name) {
  return find_or_create(name, WindowedSeries::Kind::kValue);
}

std::vector<std::string> Rollup::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

const WindowedSeries* Rollup::find(std::string_view name) const {
  auto it = series_.find(std::string{name});
  return it == series_.end() ? nullptr : &it->second;
}

std::string Rollup::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("window").value(static_cast<std::int64_t>(window_));
  w.key("series").begin_array();
  for (const auto& [name, s] : series_) {
    w.begin_object();
    w.key("name").value(name);
    w.key("kind").value(kind_name(s.kind()));
    w.key("windows").begin_array();
    for (const WindowStats& ws : s.windows()) {
      w.begin_object();
      w.key("start").value(ws.start);
      w.key("count").value(static_cast<std::uint64_t>(ws.count));
      w.key("sum").value(ws.sum);
      w.key("min").value(ws.min);
      w.key("max").value(ws.max);
      w.key("last").value(ws.last);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Rollup::clear() {
  for (auto& [name, s] : series_) s.clear();
}

/// --- AlertEngine ------------------------------------------------------------

AlertEngine::AlertEngine(AlertParams params)
    : params_(std::move(params)),
      good_(params_.window, WindowedSeries::Kind::kCounter),
      bad_(params_.window, WindowedSeries::Kind::kCounter) {
  if (params_.objective <= 0.0 || params_.objective >= 1.0) {
    throw std::invalid_argument{"SLO objective must be in (0, 1)"};
  }
  for (const BurnRateRule& r : params_.rules) {
    if (r.short_windows == 0 || r.long_windows < r.short_windows) {
      throw std::invalid_argument{"burn-rate rule windows misconfigured"};
    }
  }
}

void AlertEngine::record_good(std::int64_t ts, std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) good_.record(ts, 1.0);
}

void AlertEngine::record_bad(std::int64_t ts, std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) bad_.record(ts, 1.0);
}

std::vector<Alert> AlertEngine::alerts(std::int64_t horizon) const {
  std::vector<Alert> out;
  const std::int64_t w = params_.window;
  const std::int64_t last_window = floor_div(horizon, w);
  for (const BurnRateRule& rule : params_.rules) {
    bool active = false;
    std::size_t active_idx = 0;
    for (std::int64_t idx = 0; idx <= last_window; ++idx) {
      const std::int64_t end = (idx + 1) * w;
      if (end > horizon) break;  // evaluate closed windows only
      const std::int64_t short_begin =
          end - static_cast<std::int64_t>(rule.short_windows) * w;
      const std::int64_t long_begin =
          end - static_cast<std::int64_t>(rule.long_windows) * w;
      const double short_good = good_.sum_range(short_begin, end);
      const double short_bad = bad_.sum_range(short_begin, end);
      const double long_good = good_.sum_range(long_begin, end);
      const double long_bad = bad_.sum_range(long_begin, end);
      const double budget = 1.0 - params_.objective;
      const double short_total = short_good + short_bad;
      const double long_total = long_good + long_bad;
      const double burn_short =
          short_total > 0.0 ? (short_bad / short_total) / budget : 0.0;
      const double burn_long =
          long_total > 0.0 ? (long_bad / long_total) / budget : 0.0;

      if (!active) {
        if (long_total >= static_cast<double>(params_.min_events) &&
            burn_short >= rule.burn_threshold &&
            burn_long >= rule.burn_threshold) {
          Alert a;
          a.rule = rule.name;
          a.fired_at = end;
          a.burn_short = burn_short;
          a.burn_long = burn_long;
          out.push_back(std::move(a));
          active = true;
          active_idx = out.size() - 1;
        }
      } else if (burn_short < rule.burn_threshold) {
        out[active_idx].cleared_at = end;
        active = false;
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Alert& a, const Alert& b) {
                     return a.fired_at < b.fired_at;
                   });
  return out;
}

void AlertEngine::clear() {
  good_.clear();
  bad_.clear();
}

}  // namespace rb::obs
