#pragma once
// Process-wide metrics registry: named counters, gauges and fixed-bucket
// latency histograms, each optionally carrying a label set. Designed so the
// instrumented hot loops across the stack (event dispatch, max-min fair
// filling, task scheduling, compaction) stay cheap:
//
//  * Counters increment a sharded, cache-line-padded atomic — concurrent
//    dataflow workers never contend on one line.
//  * Metric objects are created once (mutex-protected name lookup) and then
//    held by pointer/reference; the hot path never touches the registry map.
//  * The whole subsystem is gated on a single runtime flag (`obs::enabled()`,
//    default off): instrumentation sites test one relaxed atomic load and a
//    well-predicted branch, measured <2% on the max-min inner loop by
//    `bench_obs_overhead`.
//  * `NoopCounter`/`NoopGauge`/`NoopHistogram` are compile-time no-op mirrors
//    with the same interface (checked by `MetricSinkLike` static_asserts), so
//    generic code can instantiate a fully-stripped variant.
//
// This module sits below rb_sim in the dependency order (it knows nothing
// about simulated time); callers pass plain numbers.

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rb::obs {

/// --- Global runtime switch -------------------------------------------------

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when metric/trace collection is on. Instrumentation sites guard with
/// this; when false the registry is never touched (zero allocation, one
/// relaxed load per site).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// --- Metric types -----------------------------------------------------------

/// Monotonic counter, sharded across cache lines so that concurrent
/// increments from N threads scale; value() folds the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zero every shard in place. Test/bench-scenario use only: racing
  /// writers may be partially counted.
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t shard_index() noexcept {
    // One shard per thread, assigned round-robin on first use.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }

  std::array<Shard, kShards> shards_;
};

/// Last-write-wins floating-point gauge (queue depth, utilization, occupancy).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }

  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram. Bucket upper bounds are set at creation
/// (strictly increasing; an implicit +inf bucket is appended). Thread-safe:
/// observe() touches one atomic bucket plus atomic count/sum.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  /// observe(v) plus link an exemplar id (e.g. a causal trace_id) into the
  /// bucket `v` lands in (last-write-wins). Lets an exporter answer "show
  /// me a trace from the p999 bucket".
  void observe_exemplar(double v, std::uint64_t exemplar_id) noexcept;

  /// Exemplar id linked into bucket i (0 = none recorded).
  std::uint64_t exemplar(std::size_t i) const;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Number of buckets including the +inf overflow bucket.
  std::size_t bucket_count() const noexcept { return bounds_.size() + 1; }
  /// Upper bound of bucket i (+inf for the last); cumulative-style counts.
  double bucket_bound(std::size_t i) const;
  std::uint64_t bucket(std::size_t i) const;

  /// Percentile estimate in [0,100] by linear interpolation inside the
  /// bucket containing the rank; 0 when empty.
  double percentile(double p) const;

  /// Zero counts/sum/exemplars in place, keeping the bucket layout.
  void reset() noexcept;

 private:
  std::size_t bucket_index(double v) const noexcept;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> exemplars_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds: `n` bounds starting at `start`, each `factor`
/// larger — the standard shape for latency distributions.
std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t n);

/// --- Compile-time no-op mirrors ---------------------------------------------

struct NoopCounter {
  void add(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
};
struct NoopGauge {
  void set(double) noexcept {}
  void add(double) noexcept {}
  double value() const noexcept { return 0.0; }
};
struct NoopHistogram {
  void observe(double) noexcept {}
  std::uint64_t count() const noexcept { return 0; }
  double sum() const noexcept { return 0.0; }
};

/// Interface parity between the real metrics and the stripped mirrors —
/// the "compile-checked no-op path".
template <typename C, typename G, typename H>
inline constexpr bool MetricSinkLike =
    requires(C c, G g, H h) {
      c.add(std::uint64_t{1});
      { c.value() } -> std::convertible_to<std::uint64_t>;
      g.set(0.0);
      g.add(0.0);
      { g.value() } -> std::convertible_to<double>;
      h.observe(0.0);
      { h.count() } -> std::convertible_to<std::uint64_t>;
    };

static_assert(MetricSinkLike<Counter, Gauge, LatencyHistogram>);
static_assert(MetricSinkLike<NoopCounter, NoopGauge, NoopHistogram>);

/// --- Registry ---------------------------------------------------------------

/// Sorted (key, value) label pairs identifying one time series of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Flat view of one metric instance, used by exporters and tests.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0.0;           // counter value or gauge level
  std::uint64_t count = 0;      // histogram observation count
  double sum = 0.0;             // histogram sum
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  // histogram estimates
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Returned references are stable for the registry's
  /// lifetime; callers cache them and increment without further lookups.
  /// A name+labels key always maps to one metric kind; a kind mismatch
  /// throws std::invalid_argument.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  /// `upper_bounds` is used on first creation only (strictly increasing).
  LatencyHistogram& histogram(std::string_view name,
                              std::vector<double> upper_bounds,
                              Labels labels = {});

  /// Stable-ordered flat snapshot (sorted by name, then labels).
  std::vector<MetricSample> snapshot() const;

  /// {"metrics":[{name, labels{...}, kind, value...}...]}
  std::string to_json() const;

  /// Drop every metric (tests and between bench repetitions). DANGEROUS
  /// for the global registry: instrumentation sites cache metric pointers
  /// in function-local statics, and clear() leaves them dangling. Prefer
  /// reset_for_test() for the global registry.
  void clear();

  /// Zero every metric's value IN PLACE — entry identity and previously
  /// returned references stay valid, so cached instrumentation pointers
  /// keep working. The safe way for tests and multi-scenario benches to
  /// stop counters leaking across cases.
  void reset_for_test();

  /// The process-wide registry that instrumented library code reports into.
  static Registry& global();

 private:
  struct Entry {
    MetricSample::Kind kind;
    Labels labels;
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> hist;
  };

  static std::string make_key(std::string_view name, const Labels& labels);
  Entry& find_or_create(std::string_view name, Labels labels,
                        MetricSample::Kind kind,
                        std::vector<double> bounds = {});

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace rb::obs
