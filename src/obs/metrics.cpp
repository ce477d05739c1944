#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace rb::obs {

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)} {
  if (bounds_.empty())
    throw std::invalid_argument{"LatencyHistogram: need >= 1 bound"};
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument{
          "LatencyHistogram: bounds must be strictly increasing"};
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  exemplars_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0);
    exemplars_[i].store(0);
  }
}

std::size_t LatencyHistogram::bucket_index(double v) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void LatencyHistogram::observe(double v) noexcept {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::observe_exemplar(double v,
                                        std::uint64_t exemplar_id) noexcept {
  const std::size_t idx = bucket_index(v);
  observe(v);
  if (exemplar_id != 0)
    exemplars_[idx].store(exemplar_id, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::exemplar(std::size_t i) const {
  if (i >= bucket_count())
    throw std::out_of_range{"LatencyHistogram::exemplar"};
  return exemplars_[i].load(std::memory_order_relaxed);
}

void LatencyHistogram::reset() noexcept {
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
    exemplars_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double LatencyHistogram::bucket_bound(std::size_t i) const {
  if (i >= bucket_count())
    throw std::out_of_range{"LatencyHistogram::bucket_bound"};
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t LatencyHistogram::bucket(std::size_t i) const {
  if (i >= bucket_count()) throw std::out_of_range{"LatencyHistogram::bucket"};
  return counts_[i].load(std::memory_order_relaxed);
}

double LatencyHistogram::percentile(double p) const {
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument{"LatencyHistogram::percentile: p not in [0,100]"};
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : bounds_.back();
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += c;
  }
  return bounds_.back();
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t n) {
  if (!(start > 0.0) || !(factor > 1.0) || n == 0)
    throw std::invalid_argument{"exponential_bounds: need start>0, factor>1, n>=1"};
  std::vector<double> out;
  out.reserve(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

std::string Registry::make_key(std::string_view name, const Labels& labels) {
  std::string key{name};
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Registry::Entry& Registry::find_or_create(std::string_view name, Labels labels,
                                          MetricSample::Kind kind,
                                          std::vector<double> bounds) {
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  const std::scoped_lock lock{mutex_};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    e.name = std::string{name};
    e.labels = std::move(labels);
    switch (kind) {
      case MetricSample::Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricSample::Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case MetricSample::Kind::kHistogram:
        e.hist = std::make_unique<LatencyHistogram>(std::move(bounds));
        break;
    }
    it = entries_.emplace(key, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument{"Registry: metric '" + std::string{name} +
                                "' already registered with another kind"};
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kCounter)
              .counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kGauge)
              .gauge;
}

LatencyHistogram& Registry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  return *find_or_create(name, std::move(labels),
                         MetricSample::Kind::kHistogram,
                         std::move(upper_bounds))
              .hist;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> out;
  const std::scoped_lock lock{mutex_};
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricSample::Kind::kHistogram:
        s.count = e.hist->count();
        s.sum = e.hist->sum();
        s.value = e.hist->mean();
        s.p50 = e.hist->percentile(50.0);
        s.p90 = e.hist->percentile(90.0);
        s.p99 = e.hist->percentile(99.0);
        break;
    }
    out.push_back(std::move(s));
  }
  // std::map iteration is already name-ordered (labels folded into the key).
  return out;
}

namespace {
const char* kind_name(MetricSample::Kind k) {
  switch (k) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "?";
}
}  // namespace

std::string Registry::to_json() const {
  JsonWriter w;
  w.begin_object().key("metrics").begin_array();
  for (const auto& s : snapshot()) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("kind").value(kind_name(s.kind));
    if (!s.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : s.labels) w.key(k).value(v);
      w.end_object();
    }
    if (s.kind == MetricSample::Kind::kHistogram) {
      w.key("count").value(static_cast<std::uint64_t>(s.count));
      w.key("sum").value(s.sum);
      w.key("mean").value(s.value);
      w.key("p50").value(s.p50);
      w.key("p90").value(s.p90);
      w.key("p99").value(s.p99);
    } else {
      w.key("value").value(s.value);
    }
    w.end_object();
  }
  w.end_array().end_object();
  return w.take();
}

void Registry::clear() {
  const std::scoped_lock lock{mutex_};
  entries_.clear();
}

void Registry::reset_for_test() {
  const std::scoped_lock lock{mutex_};
  for (auto& [key, e] : entries_) {
    switch (e.kind) {
      case MetricSample::Kind::kCounter: e.counter->reset(); break;
      case MetricSample::Kind::kGauge: e.gauge->reset(); break;
      case MetricSample::Kind::kHistogram: e.hist->reset(); break;
    }
  }
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

}  // namespace rb::obs
