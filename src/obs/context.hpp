#pragma once
// Causal request tracing: the layer that answers "which layer made THIS
// request slow?".
//
// The flat TraceRecorder (trace.hpp) emits uncorrelated per-component spans;
// this module adds causality. A TraceContext (trace_id + current span_id)
// is stamped on a request at the front door and propagated with it through
// attempts, hedges and retries into replica queues, the network layer and
// storage reads. Every instrumented layer emits a CausalSpan parented to the
// context it received, so each request yields one span *tree* whose segments
// carry a typed meaning (queue / service / network / retry-backoff /
// hedge-wait / storage).
//
// Keeping every tree would be both expensive and useless — the interesting
// trees are the tail. The RequestTracer therefore does tail-based exemplar
// sampling: when a trace finishes, its critical-path decomposition is
// computed and the compact (latency, decomposition) pair is kept for every
// request, but the full span tree is retained only when the request failed,
// violated the latency threshold, or ranks among the slowest N seen so far
// (a bounded slowest-first reservoir). Retained trees are exemplars: their
// trace_ids can be linked into latency-histogram buckets
// (LatencyHistogram::observe_exemplar) and their trees exported as Chrome
// trace JSON (export_chrome), where every span carries span_id /
// parent_span_id args a validator can check for referential integrity.
//
// The critical-path analyzer decomposes end-to-end latency using the tree
// structure: all retry backoffs are serial on the path; the *winning*
// attempt (marked via mark_won) contributes its network, queue and service
// children; a winning hedge additionally charges the hedge-wait that
// preceded it. Whatever is left (scheduling slack, abandoned waves that
// delayed the retry) is "other". band_summary() aggregates the decomposition
// per latency-percentile band, which is how a bench states "p999 is 80%
// service time on the gray replica".
//
// Like the other obs pieces this module sits below rb_sim: timestamps are
// plain int64 numbers (the serving plane passes picoseconds of sim time).
// Disabled (the default), every call site costs one relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace rb::obs {

/// The causal coordinates a request carries through the stack. `span_id` is
/// the span new child work should parent to (the root request span at the
/// front door, the attempt span inside a replica, the service span inside a
/// storage read). A default-constructed context is inactive and every
/// tracer call on it is a no-op, so untraced requests cost nothing.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool active() const noexcept { return trace_id != 0; }
};

/// Typed meaning of a span — what the critical-path analyzer keys on.
enum class Segment : std::uint8_t {
  kRequest,    // the root span, one per request
  kAttempt,    // one failover attempt (or hedge) of a wave
  kNetwork,    // fabric traversal (gateway<->replica, or a net flow)
  kQueue,      // waiting in a replica's bounded queue
  kService,    // executing in a replica's service batch
  kBackoff,    // retry backoff between waves
  kHedgeWait,  // waiting for the hedge delay before duplicating
  kStorage,    // LSM read under a service span
  kOther,
};

const char* to_string(Segment s) noexcept;

struct CausalSpan {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root (no parent)
  Segment segment = Segment::kOther;
  std::string name;
  std::int64_t start_ps = 0;
  /// -1 while open. Spans still open when their trace finishes (zombie
  /// attempts whose response never came) are clamped to the finish time.
  std::int64_t end_ps = -1;
  /// Free-form numeric annotation: replica id for attempt/queue/service
  /// spans, flow id for network spans, sstable probes for storage spans.
  std::int64_t ref = -1;
  /// The attempt whose response resolved the request.
  bool won = false;

  std::int64_t duration_ps() const noexcept {
    return end_ps < start_ps ? 0 : end_ps - start_ps;
  }
};

/// How a traced request terminated (mirrors serve::RequestOutcome without
/// depending on the serving plane).
enum class TraceOutcome : std::uint8_t { kCompleted, kFailed, kRejected };

const char* to_string(TraceOutcome o) noexcept;

/// Per-request critical-path decomposition, picoseconds per segment.
/// total_ps == queue + service + network + backoff + hedge_wait + other.
struct CriticalPath {
  std::int64_t total_ps = 0;
  std::int64_t queue_ps = 0;
  std::int64_t service_ps = 0;
  std::int64_t network_ps = 0;
  std::int64_t backoff_ps = 0;
  std::int64_t hedge_wait_ps = 0;
  std::int64_t other_ps = 0;

  /// Fraction of total attributed to `s` (0 when total is 0 or `s` is not a
  /// decomposed segment).
  double share(Segment s) const noexcept;
};

/// A retained span tree plus its verdict.
struct ExemplarTrace {
  std::uint64_t trace_id = 0;
  std::string name;
  std::int64_t start_ps = 0;
  std::int64_t finish_ps = 0;
  TraceOutcome outcome = TraceOutcome::kCompleted;
  CriticalPath path;
  std::vector<CausalSpan> spans;  // record order; [0] is the root span
};

/// Tail-sampling policy: which finished traces keep their full tree.
struct ExemplarParams {
  /// Reservoir capacity. When full, the fastest retained trace is evicted
  /// for a slower newcomer (failures count as slowest-of-all).
  std::size_t max_exemplars = 32;
  /// A completed request slower than this (seconds) always qualifies;
  /// 0 = only the slowest-N reservoir and failures qualify. Set this to the
  /// SLO latency to retain exactly the SLO-violating trees. Failed and
  /// rejected requests always qualify.
  double latency_threshold_s = 0.0;
};

/// Aggregated decomposition of one latency-percentile band.
struct BandDecomposition {
  const char* band = "";     // "p0-50", "p50-90", ...
  double lo_pct = 0.0;       // band covers [lo_pct, hi_pct) of requests
  double hi_pct = 0.0;
  std::uint64_t count = 0;
  double mean_latency_s = 0.0;
  /// Duration-weighted segment shares over the band (sum <= 1; the
  /// remainder is kOther).
  double queue_share = 0.0;
  double service_share = 0.0;
  double network_share = 0.0;
  double backoff_share = 0.0;
  double hedge_wait_share = 0.0;
  double other_share = 0.0;
};

class RequestTracer {
 public:
  RequestTracer() = default;
  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  void set_params(const ExemplarParams& params);

  /// Open a new trace whose root span starts at `ts_ps`. Returns the root
  /// context (trace_id + root span id), or an inactive context when the
  /// tracer is disabled.
  TraceContext start_trace(std::string_view name, std::int64_t ts_ps);

  /// Open a child span under `parent`. Returns the span id (0 when the
  /// tracer is disabled, the parent is inactive, or the trace is unknown —
  /// e.g. already finished). Children of a returned 0 are silently dropped.
  std::uint64_t begin_span(const TraceContext& parent, Segment segment,
                           std::string_view name, std::int64_t ts_ps,
                           std::int64_t ref = -1);

  /// Close an open span. Unknown trace/span ids are ignored (responses for
  /// already-finished requests race their trace teardown by design).
  void end_span(std::uint64_t trace_id, std::uint64_t span_id,
                std::int64_t ts_ps);

  /// Record an already-closed span in one call.
  std::uint64_t add_span(const TraceContext& parent, Segment segment,
                         std::string_view name, std::int64_t start_ps,
                         std::int64_t end_ps, std::int64_t ref = -1);

  /// Mark the attempt span whose response resolved the request.
  void mark_won(std::uint64_t trace_id, std::uint64_t span_id);

  /// Finish a trace: clamp still-open spans to `ts_ps`, compute the
  /// critical path, record the compact decomposition, and run the exemplar
  /// sampler. Returns true when the full tree was retained.
  bool finish(std::uint64_t trace_id, std::int64_t ts_ps,
              TraceOutcome outcome);

  /// Number of traces finished so far.
  std::size_t finished() const;
  /// Retained exemplar trees, slowest first.
  std::vector<ExemplarTrace> exemplars() const;
  /// Critical-path decomposition aggregated per latency-percentile band
  /// (p0-50, p50-90, p90-99, p99-99.9, p99.9-100) over every finished
  /// trace. Empty when nothing finished.
  std::vector<BandDecomposition> band_summary() const;

  /// Export every exemplar tree into `recorder` as complete ('X') spans on
  /// per-segment tracks ("trace.queue", "trace.service", ...). Each span
  /// carries trace_id / span_id / parent_span_id args, so a validator can
  /// assert that every referenced parent was emitted.
  void export_chrome(TraceRecorder& recorder) const;

  void clear();

  static RequestTracer& global();

 private:
  struct LiveTrace {
    std::string name;
    std::int64_t start_ps = 0;
    std::vector<CausalSpan> spans;
    std::map<std::uint64_t, std::size_t> span_index;
  };
  struct FinishedRecord {
    double latency_s = 0.0;
    CriticalPath path;
  };

  static CriticalPath critical_path(const LiveTrace& t, std::int64_t total);
  bool retain(double latency_s, TraceOutcome outcome) const;

  mutable std::mutex mutex_;
  ExemplarParams params_;
  std::map<std::uint64_t, LiveTrace> live_;
  std::vector<FinishedRecord> records_;
  std::vector<ExemplarTrace> exemplars_;
  std::uint64_t next_trace_ = 1;
  std::uint64_t next_span_ = 1;
  std::atomic<bool> enabled_{false};
};

}  // namespace rb::obs
