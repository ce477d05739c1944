#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace rb::obs {

std::int64_t wall_now_ns() noexcept {
  using namespace std::chrono;
  static const steady_clock::time_point epoch = steady_clock::now();
  return duration_cast<nanoseconds>(steady_clock::now() - epoch).count();
}

std::int64_t wall_now_us() noexcept { return wall_now_ns() / 1000; }

WallSpan::~WallSpan() {
  if (!active_) return;
  const std::int64_t dur_us = wall_now_us() - start_us_;
  TraceRecorder::global().complete(
      category_, name_, start_us_ * 1'000'000,
      std::max<std::int64_t>(dur_us, 1) * 1'000'000, std::move(args_));
}

TraceArg trace_arg(std::string key, std::string value) {
  return TraceArg{std::move(key), std::move(value), true};
}
TraceArg trace_arg(std::string key, std::int64_t value) {
  return TraceArg{std::move(key), std::to_string(value), false};
}
TraceArg trace_arg(std::string key, std::uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value), false};
}
TraceArg trace_arg(std::string key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return TraceArg{std::move(key), buf, false};
}

int TraceRecorder::track_for(std::string_view category) {
  // Called with mutex_ held.
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == category) return static_cast<int>(i);
  }
  tracks_.emplace_back(category);
  return static_cast<int>(tracks_.size() - 1);
}

void TraceRecorder::record(TraceEvent e) {
  e.wall_us = wall_now_us();
  const std::scoped_lock lock{mutex_};
  e.tid = track_for(e.category);
  events_.push_back(std::move(e));
}

void TraceRecorder::complete(std::string_view category, std::string_view name,
                             std::int64_t ts_ps, std::int64_t dur_ps,
                             std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'X';
  e.category = std::string{category};
  e.name = std::string{name};
  e.ts_ps = ts_ps;
  e.dur_ps = dur_ps;
  e.args = std::move(args);
  record(std::move(e));
}

void TraceRecorder::async_begin(std::string_view category,
                                std::string_view name, std::uint64_t id,
                                std::int64_t ts_ps,
                                std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'b';
  e.category = std::string{category};
  e.name = std::string{name};
  e.id = id;
  e.ts_ps = ts_ps;
  e.args = std::move(args);
  record(std::move(e));
}

void TraceRecorder::async_end(std::string_view category, std::string_view name,
                              std::uint64_t id, std::int64_t ts_ps,
                              std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'e';
  e.category = std::string{category};
  e.name = std::string{name};
  e.id = id;
  e.ts_ps = ts_ps;
  e.args = std::move(args);
  record(std::move(e));
}

void TraceRecorder::instant(std::string_view category, std::string_view name,
                            std::int64_t ts_ps, std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'i';
  e.category = std::string{category};
  e.name = std::string{name};
  e.ts_ps = ts_ps;
  e.args = std::move(args);
  record(std::move(e));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const std::scoped_lock lock{mutex_};
  return events_;
}

std::size_t TraceRecorder::event_count() const {
  const std::scoped_lock lock{mutex_};
  return events_.size();
}

std::string TraceRecorder::to_chrome_json() const {
  std::vector<TraceEvent> evs;
  std::vector<std::string> tracks;
  {
    const std::scoped_lock lock{mutex_};
    evs = events_;
    tracks = tracks_;
  }
  // Stable sort by sim timestamp so the file reads chronologically and the
  // validator can assert monotone time; ties keep record order.
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ps < b.ts_ps;
                   });

  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  // Named tracks: one metadata event per component category.
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(i));
    w.key("args").begin_object().key("name").value(tracks[i]).end_object();
    w.end_object();
  }
  for (const auto& e : evs) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(e.category);
    w.key("ph").value(std::string_view{&e.phase, 1});
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(e.tid));
    w.key("ts").value(static_cast<double>(e.ts_ps) / 1e6);  // ps -> us
    if (e.phase == 'X') {
      w.key("dur").value(static_cast<double>(e.dur_ps) / 1e6);
    }
    if (e.phase == 'b' || e.phase == 'e') {
      w.key("id").value(e.id);
    }
    if (e.phase == 'i') {
      w.key("s").value("t");  // thread-scoped instant
    }
    w.key("args").begin_object();
    w.key("wall_us").value(e.wall_us);
    for (const auto& a : e.args) {
      w.key(a.key);
      if (a.quoted) {
        w.value(a.value);
      } else {
        // Pre-formatted number: splice it in unquoted via a string value
        // parse at read time — simplest is to emit as number text.
        w.value(std::stod(a.value));
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_array().end_object();
  return w.take();
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"TraceRecorder: cannot open " + path};
  const std::string doc = to_chrome_json();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  if (!out) throw std::runtime_error{"TraceRecorder: write failed for " + path};
}

void TraceRecorder::clear() {
  const std::scoped_lock lock{mutex_};
  events_.clear();
  tracks_.clear();
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder r;
  return r;
}

}  // namespace rb::obs
