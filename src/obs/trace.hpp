#pragma once
// Trace recorder producing Chrome trace_event JSON (load in chrome://tracing
// or https://ui.perfetto.dev). Every event carries TWO timestamps:
//
//  * simulated time, passed by the caller in picoseconds (the discrete-event
//    clock) — this becomes the trace's primary `ts` axis, so spans line up
//    on the simulation timeline and two identically-seeded runs produce
//    identical traces (the determinism test relies on this);
//  * wall-clock time, captured at record time and attached as
//    `args.wall_us` — useful when profiling the simulator itself or tracing
//    real (non-simulated) work such as LSM compactions, which pass
//    wall-derived timestamps as their `ts` too.
//
// Event kinds map onto trace_event phases: complete spans ('X'), async
// begin/end pairs ('b'/'e', matched by category+id — used for flows, task
// attempts and fault outages whose begin and end happen in different
// simulator events), and instants ('i').
//
// Tracks: `tid` is a small integer assigned per component name on first use
// and emitted as thread_name metadata, so Perfetto shows one named track per
// component (net.flow, faults, sched.task, ...).
//
// Disabled (the default) the recorder is a relaxed atomic load per call site.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"  // for the shared enabled-flag idiom

namespace rb::obs {

/// One (key, value) annotation on a trace event.
struct TraceArg {
  std::string key;
  std::string value;  // stored as text; numbers are formatted by the caller
  bool quoted = true;
};

struct TraceEvent {
  char phase = 'i';         // 'X', 'b', 'e', 'i'
  std::string category;     // e.g. "net.flow", "sched.task", "faults"
  std::string name;
  std::uint64_t id = 0;     // async pair id (phase 'b'/'e')
  std::int64_t ts_ps = 0;   // simulated (or wall-derived) time, picoseconds
  std::int64_t dur_ps = 0;  // phase 'X' only
  std::int64_t wall_us = 0; // wall clock at record time
  int tid = 0;              // component track
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// A complete span [ts_ps, ts_ps + dur_ps] on the component's track.
  void complete(std::string_view category, std::string_view name,
                std::int64_t ts_ps, std::int64_t dur_ps,
                std::vector<TraceArg> args = {});

  /// Async span half; begin/end are matched by (category, id).
  void async_begin(std::string_view category, std::string_view name,
                   std::uint64_t id, std::int64_t ts_ps,
                   std::vector<TraceArg> args = {});
  void async_end(std::string_view category, std::string_view name,
                 std::uint64_t id, std::int64_t ts_ps,
                 std::vector<TraceArg> args = {});

  /// A zero-duration marker on the component's track.
  void instant(std::string_view category, std::string_view name,
               std::int64_t ts_ps, std::vector<TraceArg> args = {});

  /// Snapshot of recorded events in record order (tests, validation).
  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}), events sorted by ts.
  /// `ts` is emitted in microseconds (the format's unit); sub-microsecond
  /// sim durations are preserved via fractional ts.
  std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; throws std::runtime_error on I/O error.
  void write_chrome_json(const std::string& path) const;

  void clear();

  static TraceRecorder& global();

 private:
  void record(TraceEvent e);
  int track_for(std::string_view category);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;  // index = tid
  std::atomic<bool> enabled_{false};
};

/// Wall clock in nanoseconds since an arbitrary process-local epoch: the
/// one reader of the steady clock that library code and benches time with.
std::int64_t wall_now_ns() noexcept;
/// wall_now_ns() in whole microseconds.
std::int64_t wall_now_us() noexcept;

/// RAII span for real (not simulated) work such as LSM flushes or dataflow
/// stages. Its destructor records a complete event whose ts and dur are
/// wall-clock microseconds expressed in picoseconds (dur at least 1 µs).
/// With the recorder off it reads no clock and records nothing.
class WallSpan {
 public:
  WallSpan(const char* category, const char* name,
           std::vector<TraceArg> args = {})
      : active_{TraceRecorder::global().enabled()},
        category_{category},
        name_{name},
        args_{std::move(args)},
        start_us_{active_ ? wall_now_us() : 0} {}
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  ~WallSpan();

 private:
  bool active_;
  const char* category_;
  const char* name_;
  std::vector<TraceArg> args_;
  std::int64_t start_us_;
};

/// Format helper for numeric trace args.
TraceArg trace_arg(std::string key, std::string value);
TraceArg trace_arg(std::string key, std::int64_t value);
TraceArg trace_arg(std::string key, std::uint64_t value);
TraceArg trace_arg(std::string key, double value);

}  // namespace rb::obs
