#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "accel/simd/simd.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Digest::add(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// --- spans ------------------------------------------------------------------

Spans::Spans() {
  spans_.reserve(1 << 16);
  stack_.reserve(64);
}

std::int32_t Spans::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      Span{name, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void Spans::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes nest, so the closing span is the innermost open one.
  stack_.pop_back();
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

Spans::Totals totals_of(const SpanTotals& totals, const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? Spans::Totals{} : it->second;
}

void Spans::write_chrome(const std::string& path) const {
  rb::obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    recorder.complete(
        "perfbench", s.name, (s.start_ns - base) * 1000,
        (s.end_ns - s.start_ns) * 1000,
        {rb::obs::trace_arg("span", static_cast<std::uint64_t>(i)),
         rb::obs::trace_arg("parent", static_cast<std::int64_t>(s.parent))});
  }
  recorder.write_chrome_json(path);
}

// --- hold model -----------------------------------------------------------------

double hold_model_ns(std::size_t pending, std::uint64_t seed,
                     double* allocs_per_event) {
  rb::sim::Simulator sim;
  rb::sim::Rng rng{seed};
  // Exponential delays (mean 1 us) drawn up front so the timed loop is the
  // kernel alone.
  std::vector<rb::sim::SimTime> delays(4096);
  for (auto& d : delays) d = rb::sim::from_seconds(rng.exponential(1e-6)) + 1;
  std::size_t next = 0;
  const auto hold_one = [&] {
    sim.schedule_in(delays[next++ & 4095], [] {});
    sim.step();
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    sim.schedule_in(delays[next++ & 4095], [] {});
  }
  constexpr int kPasses = 5;
  constexpr std::size_t kIterations = 40'000;
  for (std::size_t i = 0; i < kIterations; ++i) hold_one();  // warm-up
  std::vector<double> pass_ns;
  for (int p = 0; p < kPasses; ++p) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kIterations; ++i) hold_one();
    pass_ns.push_back(static_cast<double>(now_ns() - t0) / kIterations);
  }
  const std::uint64_t before = allocs::count();
  allocs::set_counting(true);
  for (std::size_t i = 0; i < kIterations; ++i) hold_one();
  allocs::set_counting(false);
  *allocs_per_event =
      static_cast<double>(allocs::count() - before) / kIterations;
  return median(std::move(pass_ns));
}

// --- the run --------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Peak resident set of this program image. Linux keeps getrusage's
/// ru_maxrss across exec, so after a fork from a larger parent (run.py's
/// Python) it reports the parent's size; /proc/self/status VmHWM starts
/// afresh at exec. getrusage is the fallback where there is no /proc.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(RB_SANITIZED)
  return true;
#else
  return false;
#endif
}

void write_manifest(const Workload& w, const Config& cfg) {
  rb::obs::JsonWriter j;
  const char* rb_simd = std::getenv("RB_SIMD");
  j.begin_object()
      .key("source")
      .value(cfg.source_id.empty() ? "unknown" : cfg.source_id)
      .key("build_type")
      .value(PERFBENCH_BUILD_TYPE)
      .key("compiler")
      .value(PERFBENCH_COMPILER)
      .key("simd_isa")
      .value(rb::accel::simd::to_string(rb::accel::simd::active_isa()))
      .key("RB_SIMD")
      .value(rb_simd == nullptr ? "" : rb_simd)
      .key("sanitizer")
      .value(sanitized())
      .key("nproc")
      .value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .key("workload")
      .value(cfg.workload)
      .key("seed")
      .value(static_cast<std::uint64_t>(cfg.seed))
      .key("seconds")
      .value(cfg.seconds)
      .key("trace")
      .value(cfg.trace)
      .key("tiny")
      .value(cfg.tiny)
      .key("sizes");
  j.begin_object();
  w.write_sizes(j);
  j.end_object().end_object();
  std::printf("MANIFEST %s\n", j.str().c_str());
}

}  // namespace

int run(Workload& w, const Config& cfg) {
  const auto budget_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  Spans& spans = w.spans();

  std::vector<double> setup_s;
  rb::sim::PercentileTracker step_ms;
  std::int64_t measured_ns = 0;
  std::uint64_t units = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t episodes = 0;
  Window window;
  // The window alternates traced and untraced steps, so both halves see
  // the same host phases; their throughput ratio is the tracing overhead.
  std::int64_t ns_by_traced[2] = {0, 0};
  std::uint64_t units_by_traced[2] = {0, 0};

  for (std::uint64_t episode = 0;; ++episode) {
    if (episode > 0 && measured_ns >= budget_ns) break;
    w.prepare(episode);
    const std::int64_t t_setup = now_ns();
    w.setup();
    setup_s.push_back(static_cast<double>(now_ns() - t_setup) * 1e-9);
    ++episodes;

    std::uint64_t steps = 0;
    std::uint64_t measured_steps = 0;
    bool broken = false;
    while (steps < w.steps_per_episode()) {
      const bool timed = measured_ns < budget_ns;
      if (!timed && episode > 0) break;
      StepMode mode;
      mode.window = cfg.trace && episode == 0;
      mode.traced = mode.window && steps % 2 == 1;
      spans.set_enabled(mode.traced);
      const std::uint64_t allocs_before = allocs::count();
      if (mode.window) allocs::set_counting(true);
      std::uint64_t step_units = 0;
      const std::int64_t t0 = now_ns();
      try {
        Scope root{spans, "step"};
        step_units = w.step(mode);
      } catch (const std::exception& e) {
        std::printf("FAILED step %llu of episode %llu: %s\n",
                    static_cast<unsigned long long>(steps),
                    static_cast<unsigned long long>(episode), e.what());
        broken = true;
      }
      const std::int64_t dt = now_ns() - t0;
      allocs::set_counting(false);
      spans.set_enabled(false);
      if (mode.window && !broken) {
        ++window.steps;
        window.ns += dt;
        window.units += step_units;
        window.allocs += allocs::count() - allocs_before;
        ns_by_traced[mode.traced ? 1 : 0] += dt;
        units_by_traced[mode.traced ? 1 : 0] += step_units;
      }
      // A broken step is a failed operation even past the deadline, where
      // episode 0 still runs.
      if (timed || broken) {
        ++attempted;
        ++measured_steps;
      }
      if (broken) {
        ++failed;
        break;
      }
      if (timed) {
        measured_ns += dt;
        units += step_units;
        step_ms.add(static_cast<double>(dt) * 1e-6);
      }
      ++steps;
    }
    // A broken step leaves the program state unverifiable: end the run.
    if (broken) break;
    bool checked = false;
    try {
      checked = w.finish_episode();
    } catch (const std::exception& e) {
      std::printf("FAILED end of episode: %s\n", e.what());
    }
    if (!checked) {
      std::printf("FAILED self-check of episode %llu\n",
                  static_cast<unsigned long long>(episode));
      // The episode's steps are unverified: count them all as failed.
      failed += std::max<std::uint64_t>(measured_steps, 1);
      attempted = std::max(attempted, failed);
    }
  }

  const bool correct = failed == 0 && !step_ms.empty();
  std::map<std::string, double> values;
  if (!cfg.trace) {
    values["setup_s"] = median(setup_s);
    values["throughput_per_s"] = per(static_cast<double>(units) * 1e9,
                                     static_cast<double>(measured_ns));
    values["step_p50_ms"] = step_ms.empty() ? 0.0 : step_ms.p50();
    values["step_tail_ms"] = step_ms.empty() ? 0.0 : step_ms.p90();
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    const auto totals = spans.totals();
    LayerValues layer;
    w.layer_values(layer, window, totals);
    const auto rate = [&](int traced) {
      return per(static_cast<double>(units_by_traced[traced]) * 1e9,
                 static_cast<double>(ns_by_traced[traced]));
    };
    layer["trace.throughput_traced_per_s"] = rate(1);
    layer["trace.throughput_untraced_per_s"] = rate(0);
    layer["trace.overhead"] =
        rate(1) > 0.0 ? (rate(0) / rate(1) - 1.0) * 100.0 : 0.0;
    layer["trace.window_steps"] = static_cast<double>(window.steps);
    layer["trace.window_units"] = static_cast<double>(window.units);
    if (const auto it = totals.find("step"); it != totals.end()) {
      // Every span's self time is its length minus its children, so the
      // layers' self times plus this residual add up to the step time.
      layer["trace.steps"] = static_cast<double>(it->second.count);
      layer["trace.residual_share"] =
          100.0 * per(static_cast<double>(it->second.self_ns),
                      static_cast<double>(it->second.total_ns));
    }
    values = std::move(layer);
    if (!cfg.trace_out.empty()) spans.write_chrome(cfg.trace_out);
  }

  // Human-readable report.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("  episodes %llu, steps attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(episodes),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const auto& [name, value] : values) {
    std::printf("  %-34s %16.6g\n", name.c_str(), value);
  }
  if (cfg.trace) {
    std::printf("  spans (traced steps):\n  %-22s %10s %12s %12s\n", "name",
                "count", "total_ms", "self_ms");
    for (const auto& [name, t] : spans.totals()) {
      std::printf("  %-22s %10llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) * 1e-6,
                  static_cast<double>(t.self_ns) * 1e-6);
    }
  }
  write_manifest(w, cfg);
  {
    rb::obs::JsonWriter j;
    j.begin_object();
    w.write_digest(j);
    j.end_object();
    std::printf("DIGEST %s\n", j.str().c_str());
  }

  rb::obs::JsonWriter j;
  j.begin_object()
      .key("correct")
      .value(correct)
      .key("attempted")
      .value(static_cast<std::uint64_t>(attempted))
      .key("failed")
      .value(static_cast<std::uint64_t>(failed))
      .key("values")
      .begin_object();
  for (const auto& [name, value] : values) j.key(name).value(value);
  j.end_object().end_object();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
