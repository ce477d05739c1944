#pragma once
// Shared bench runner: the formatting helpers the experiment benches print
// their paper-style tables with, the wall-clock timing helpers (the only
// place under bench/ that reads the clock, through obs::wall_now_ns), plus
// a machine-readable telemetry `Report`.
// Every bench that constructs a Report accepts `--json <path>` (or the
// RB_BENCH_JSON environment variable) and writes one JSON document
//   {"bench": <name>, "config": {...}, "metrics": {...}}
// on exit, so CI and sweep scripts can consume results without scraping the
// human tables.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rb::bench {

inline void heading(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Wall-clock milliseconds one call of `fn` takes.
template <typename Fn>
double time_ms(Fn&& fn) {
  const std::int64_t t0 = obs::wall_now_ns();
  fn();
  return static_cast<double>(obs::wall_now_ns() - t0) * 1e-6;
}

/// The fastest of `n` calls of `fn`, in milliseconds.
template <typename Fn>
double best_ms(int n, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < n; ++i) best = std::min(best, time_ms(fn));
  return best;
}

struct Paired {
  double base_ms = 1e300;  // fastest base sample
  double cand_ms = 1e300;  // fastest candidate sample
  double ratio = 0.0;      // median of the per-pair cand/base ratios
};

/// `n` back-to-back (base, cand) sample pairs, alternating which side runs
/// first. Frequency drift and scheduler noise hit both halves of a pair, so
/// the median per-pair ratio is far steadier than the ratio of two
/// independent minima.
template <typename Base, typename Cand>
Paired paired_ms(int n, Base&& base, Cand&& cand) {
  Paired out;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double b = 0.0;
    double c = 0.0;
    if (i % 2 == 0) {
      b = time_ms(base);
      c = time_ms(cand);
    } else {
      c = time_ms(cand);
      b = time_ms(base);
    }
    out.base_ms = std::min(out.base_ms, b);
    out.cand_ms = std::min(out.cand_ms, c);
    ratios.push_back(c / b);
  }
  std::sort(ratios.begin(), ratios.end());
  out.ratio = ratios[static_cast<std::size_t>(n / 2)];
  return out;
}

/// Machine-readable bench telemetry. Construct one per bench with argc/argv;
/// if neither `--json <path>` nor RB_BENCH_JSON is present the report is
/// inert (every call is a cheap no-op). Values registered via config() and
/// metric() are written as one JSON document when write() is called (the
/// destructor calls it too, so early returns still produce output).
class Report {
 public:
  using Value = std::variant<std::string, double, std::int64_t, std::uint64_t,
                             bool>;

  Report(std::string bench, int argc, char** argv)
      : bench_{std::move(bench)} {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view{argv[i]} == "--json") {
        if (i + 1 >= argc)
          throw std::invalid_argument{"--json requires a path argument"};
        path_ = argv[i + 1];
      }
    }
    if (path_.empty()) {
      if (const char* env = std::getenv("RB_BENCH_JSON")) path_ = env;
    }
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  ~Report() {
    try {
      write();
    } catch (...) {
      // Destructors must not throw; a failed telemetry write is not worth
      // aborting the bench over.
    }
  }

  /// True when a JSON destination was requested.
  bool enabled() const noexcept { return !path_.empty(); }
  const std::string& path() const noexcept { return path_; }

  void config(std::string key, Value v) {
    if (!enabled()) return;
    config_.emplace_back(std::move(key), std::move(v));
  }
  void metric(std::string key, Value v) {
    if (!enabled()) return;
    metrics_.emplace_back(std::move(key), std::move(v));
  }

  /// Write the document now (idempotent). Throws std::runtime_error on I/O
  /// failure when called explicitly; the destructor swallows errors.
  void write() {
    if (!enabled() || written_) return;
    written_ = true;
    obs::JsonWriter w;
    w.begin_object();
    w.key("bench").value(bench_);
    w.key("config").begin_object();
    for (const auto& [k, v] : config_) emit(w, k, v);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [k, v] : metrics_) emit(w, k, v);
    w.end_object();
    w.end_object();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error{"Report: cannot open " + path_};
    const std::string& doc = w.str();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (!ok) throw std::runtime_error{"Report: short write to " + path_};
  }

 private:
  static void emit(obs::JsonWriter& w, const std::string& k, const Value& v) {
    w.key(k);
    std::visit([&w](const auto& x) { w.value(x); }, v);
  }

  std::string bench_;
  std::string path_;
  std::vector<std::pair<std::string, Value>> config_;
  std::vector<std::pair<std::string, Value>> metrics_;
  bool written_ = false;
};

}  // namespace rb::bench
