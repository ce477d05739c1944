#pragma once
// Shared machinery of the perfbench binary: host clock, in-memory spans
// around calls into the program's layers, heap-allocation counting, the
// event-kernel hold model, and the episode/step loop that turns a workload
// into end-to-end and per-layer metrics.
//
// A workload runs as a sequence of episodes. Each episode generates its
// inputs (untimed), builds and warms up the program state (timed: one
// setup_s sample), then runs measured steps until it holds
// steps_per_episode() steps or the run's measured time is spent.
//
// Episode 0 always runs to its full length (the steps past the deadline
// are not measured), so its outputs and counts repeat exactly for a seed:
// the digests come from it, and in a traced run it is the window of every
// per-layer metric. There, odd steps record spans and even steps do not
// (their throughput ratio is the tracing overhead), and heap allocations
// are counted on all of them.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

/// Host monotonic clock in nanoseconds.
std::int64_t now_ns() noexcept;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every code path, a fraction of the work.
  bool tiny = false;
  /// Where the traced run writes its spans as Chrome trace JSON ("" = off).
  std::string trace_out;
  /// Source identity recorded in the manifest (commit or tree digest).
  std::string source_id;
};

/// Heap allocations the calling thread made through the global operator
/// new while counting was on. alloc_counter.cpp replaces the global
/// allocation functions.
namespace allocs {
void set_counting(bool on) noexcept;
std::uint64_t count() noexcept;
}  // namespace allocs

/// In-memory span log: name, start, end and parent of every call the
/// benchmark wraps. Disabled, opening a span is a branch.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int32_t parent;  // -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;  // inclusive
    std::int64_t self_ns = 0;   // minus direct children
  };

  Spans();
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  std::int32_t open(const char* name);
  void close(std::int32_t id);

  /// Per-name count, inclusive and self time.
  std::map<std::string, Totals> totals() const;

  /// Export through an obs::TraceRecorder of the benchmark's own (never the
  /// global one) as Chrome trace JSON.
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op while the log is disabled.
class Scope {
 public:
  Scope(Spans& spans, const char* name)
      : spans_{spans}, id_{spans.enabled() ? spans.open(name) : -1} {}
  ~Scope() {
    if (id_ >= 0) spans_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::int32_t id_;
};

/// Per-layer values by name. BENCHMARK.json lists the names and units;
/// run.py attaches the units, rejects a name it does not list and reports 0
/// for a layer the workload does not exercise.
using LayerValues = std::map<std::string, double>;
using SpanTotals = std::map<std::string, Spans::Totals>;

/// The totals of spans named `name` (all zero when there were none).
Spans::Totals totals_of(const SpanTotals& totals, const char* name);

/// How the harness runs one step.
struct StepMode {
  bool window = false;  // a step of episode 0 in a traced run
  bool traced = false;  // spans are recorded
};

/// Episode 0 of a traced run: every step, traced or not.
struct Window {
  std::uint64_t steps = 0;
  std::int64_t ns = 0;
  std::uint64_t units = 0;
  std::uint64_t allocs = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate episode `episode`'s inputs (not timed).
  virtual void prepare(std::uint64_t episode) = 0;
  /// Build the program state and warm it up (timed as one setup sample).
  virtual void setup() = 0;
  virtual std::uint64_t steps_per_episode() const = 0;
  /// One measured step; returns its work units. Throws on failure.
  virtual std::uint64_t step(const StepMode& mode) = 0;
  /// Untimed end of an episode: drain, self-check, fold counters. Returns
  /// false when a self-check failed.
  virtual bool finish_episode() = 0;

  /// Sizes of the inputs, for the manifest.
  virtual void write_sizes(rb::obs::JsonWriter& w) const = 0;
  /// Digests of the simulated outputs of episode 0 (printed, not pinned).
  virtual void write_digest(rb::obs::JsonWriter& w) const = 0;
  /// Per-layer values after a traced run; `traced` holds the span totals
  /// of the window's traced steps.
  virtual void layer_values(LayerValues& out, const Window& window,
                            const SpanTotals& traced) = 0;

  Spans& spans() noexcept { return spans_; }

 protected:
  Spans spans_;
};

/// The workloads, one file each.
std::unique_ptr<Workload> make_fabric_churn(const Config& cfg);
std::unique_ptr<Workload> make_serving_chaos(const Config& cfg);
std::unique_ptr<Workload> make_durable_query(const Config& cfg);

/// Event-kernel cost on a hold model: `pending` events stay scheduled while
/// each iteration schedules one event and dispatches the earliest. Returns
/// host ns per iteration; `*allocs_per_event` gets heap allocations per
/// iteration.
double hold_model_ns(std::size_t pending, std::uint64_t seed,
                     double* allocs_per_event);

/// `num / den`, or 0 when there is no base.
inline double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median, or 0 for no samples.
double median(std::vector<double> v);

/// Run `w` under `cfg`; prints the human-readable report, the manifest and
/// digest lines, and as the last line {"correct", "attempted", "failed",
/// "values": {name: value}}. Returns the exit code (non-zero on any failed
/// step or self-check).
int run(Workload& w, const Config& cfg);

/// splitmix64 — derive independent seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept;

/// FNV-1a over bytes, for output digests.
class Digest {
 public:
  void add(const void* data, std::size_t n) noexcept;
  template <typename T>
  void add_value(const T& v) noexcept {
    add(&v, sizeof v);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
