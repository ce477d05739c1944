// MICRO-BLOCKS — gated micro-benchmarks of the CPU building blocks.
//
// Section 1 sweeps the dispatched selection-scan kernel across every ISA
// level this CPU reaches, on 64-byte-aligned cache-resident inputs.
// Section 2 reports the headline tuned-vs-scalar gaps (selection scan and
// hash-join probe) through simd_measure.hpp — the same numbers E2/E8
// consume.
// Section 3 (full mode only) times the remaining blocks backing E2/E10:
// the query engine's hash join and group aggregation (each one plan that
// builds, probes and materializes), radix sort, blocked GEMM, Aho-Corasick
// matching, tokenization.
//
// In --quick mode the bench gates on the SIMD layer earning its keep:
// selection scan >= 4x and join probe >= 3x over scalar, exiting 1 on a
// miss. The gate arms only on AVX2/AVX-512 hosts (NEON runs 2 lanes and
// the scalar probe; the big-ratio contract is an x86-wide-vector claim)
// and is report-only under sanitizer builds, whose per-access
// instrumentation distorts kernel ratios.

#include <cstdio>
#include <cstring>
#include <vector>

#include "accel/gemm.hpp"
#include "accel/simd/simd.hpp"
#include "accel/sort.hpp"
#include "accel/text.hpp"
#include "bench_util.hpp"
#include "query/exec/plan.hpp"
#include "sim/random.hpp"
#include "simd_measure.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace rb;
using bench::best_ms;
namespace simd = accel::simd;

#if defined(RB_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Rows per kernel invocation: cache-resident on purpose. The kernels are
/// compute-bound there; at DRAM-resident sizes every ISA converges on
/// memory bandwidth and the sweep measures the machine, not the code.
constexpr std::size_t kRows = 16384;

/// Per-ISA kernel sweep: GRows/s of the selection scan.
void sweep_isas(bench::Report& report) {
  bench::Aligned<std::int64_t> values{kRows};
  bench::Aligned<std::uint32_t> sel{kRows};
  bench::fill_scan_column(values, kRows, 11);
  const int reps = static_cast<int>((1u << 22) / kRows) + 1;

  std::printf("  %-8s %14s\n", "isa", "select GR/s");
  for (const simd::Isa isa : simd::reachable_isas()) {
    const simd::IsaGuard guard{isa};
    const auto& k = simd::kernels();
    volatile std::uint64_t sink = 0;
    const double sel_ms = best_ms(5, [&] {
                            std::uint64_t acc = 0;
                            for (int r = 0; r < reps; ++r) {
                              acc += k.select_between(values.p, kRows, 250,
                                                      750, sel.p);
                            }
                            sink = acc;
                          }) /
                          reps;
    (void)sink;
    const double grows = static_cast<double>(kRows) / (sel_ms * 1e6);
    std::printf("  %-8s %14.2f\n", simd::to_string(isa), grows);
    report.metric(std::string{"isa."} + simd::to_string(isa) +
                      ".select_grows",
                  grows);
  }
}

/// Full-mode block timings (the pre-SIMD micro-benchmark set).
void bench_blocks(bench::Report& report) {
  std::printf("\n  building blocks (best of 3):\n");
  const auto record = [&report](const char* name, double ms,
                                double items_per_ms) {
    std::printf("    %-22s %10.3f ms %12.1f Kitems/s\n", name, ms,
                items_per_ms);
    report.metric(std::string{"blocks."} + name + ".ms", ms);
  };

  {
    auto tables = workloads::order_query_tables(1 << 17, 4.0, 0.6, 2);
    const auto probe_rows = static_cast<double>(tables.lineitems.row_count());
    const auto plan =
        query::exec::PlanBuilder{std::move(tables.lineitems)}
            .join(std::move(tables.orders), "order_id", "order_id")
            .build();
    volatile std::size_t sink = 0;
    const double ms = best_ms(3, [&] { sink = plan.run().row_count(); });
    (void)sink;
    record("hash_join", ms, probe_rows / ms);
  }
  {
    sim::Rng rng{3};
    std::vector<std::uint64_t> base(1 << 20);
    for (auto& k : base) k = rng();
    const double ms = best_ms(3, [&base] {
      auto keys = base;
      accel::radix_sort(keys);
    });
    record("radix_sort(1M)", ms, static_cast<double>(base.size()) / ms);
  }
  {
    sim::Rng rng{5};
    const std::size_t rows = 1 << 20;
    std::vector<std::int64_t> keys(rows), values(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      keys[i] = static_cast<std::int64_t>(rng.uniform_index(1000));
      values[i] = static_cast<std::int64_t>(rng.uniform_index(100));
    }
    query::Table table;
    table.add_int_column("key", std::move(keys));
    table.add_int_column("value", std::move(values));
    const auto plan =
        query::exec::PlanBuilder{std::move(table)}
            .group_by("key", query::Aggregate::kSum, "value", "sum")
            .build();
    volatile std::size_t sink = 0;
    const double ms = best_ms(3, [&] { sink = plan.run().row_count(); });
    (void)sink;
    record("group_aggregate(1M)", ms, static_cast<double>(rows) / ms);
  }
  {
    const std::size_t n = 128;
    sim::Rng rng{8};
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double naive_ms =
        best_ms(3, [&] { accel::gemm_naive(a, b, c, n, n, n); });
    const double blocked_ms =
        best_ms(3, [&] { accel::gemm_blocked(a, b, c, n, n, n); });
    record("gemm_naive(128)", naive_ms,
           static_cast<double>(2 * n * n * n) / naive_ms);
    record("gemm_blocked(128)", blocked_ms,
           static_cast<double>(2 * n * n * n) / blocked_ms);
  }
  {
    const auto lines = workloads::web_log(1 << 12, 7);
    const accel::PatternMatcher matcher{workloads::incident_patterns()};
    volatile std::uint64_t sink = 0;
    const double ms = best_ms(3, [&] {
      std::uint64_t hits = 0;
      for (const auto& line : lines) hits += matcher.count_matches(line);
      sink = hits;
    });
    (void)sink;
    record("pattern_match(4K)", ms, static_cast<double>(lines.size()) / ms);
  }
  {
    const auto doc = workloads::zipf_document(1 << 14, 50'000, 1.05, 8);
    volatile std::size_t sink = 0;
    const double ms = best_ms(3, [&] { sink = accel::tokenize(doc).size(); });
    (void)sink;
    record("tokenize(16KB)", ms, static_cast<double>(doc.size()) / ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::Report report{"micro_blocks", argc, argv};
  report.config("quick", quick);
  report.config("sanitized", kSanitized);
  report.config("best_isa", simd::to_string(simd::best_supported()));
  report.config("active_isa", simd::to_string(simd::active_isa()));

  bench::heading("MICRO-BLOCKS",
                 "SIMD kernel layer + CPU building blocks (gated)");
  std::printf("  active isa: %s, best supported: %s%s\n",
              simd::to_string(simd::active_isa()),
              simd::to_string(simd::best_supported()),
              kSanitized ? " (sanitized: gates report-only)" : "");

  std::printf("\n  per-ISA kernel sweep (%zu rows, 64B-aligned):\n", kRows);
  sweep_isas(report);

  // Headline tuned-vs-scalar gaps — the numbers the --quick gate pins and
  // bench_e2/e8 consume. speedup defaults to 1.0 on scalar-only hosts so
  // the telemetry contract (scan.speedup/probe.speedup present) holds
  // everywhere.
  double scan_speedup = 1.0;
  double probe_speedup = 1.0;
  std::printf("\n  tuned vs scalar (best of 7, %zu rows):\n", kRows);
  if (const auto scan = bench::measure_select_scan(kRows)) {
    scan_speedup = scan->speedup;
    std::printf("    selection scan   %-7s %8.4f ms -> %8.4f ms  %6.2fx\n",
                simd::to_string(scan->isa), scan->scalar_ms, scan->tuned_ms,
                scan->speedup);
    report.metric("scan.scalar_ms", scan->scalar_ms);
    report.metric("scan.tuned_ms", scan->tuned_ms);
  } else {
    std::printf("    selection scan   no SIMD unit usable (scalar host)\n");
  }
  if (const auto probe = bench::measure_join_probe(kRows)) {
    probe_speedup = probe->speedup;
    std::printf("    hash-join probe  %-7s %8.4f ms -> %8.4f ms  %6.2fx\n",
                simd::to_string(probe->isa), probe->scalar_ms,
                probe->tuned_ms, probe->speedup);
    report.metric("probe.scalar_ms", probe->scalar_ms);
    report.metric("probe.tuned_ms", probe->tuned_ms);
  } else {
    std::printf("    hash-join probe  no SIMD unit usable (scalar host)\n");
  }
  report.metric("scan.speedup", scan_speedup);
  report.metric("probe.speedup", probe_speedup);

  if (!quick) bench_blocks(report);

  // The gate arms on wide-vector x86 hosts only; NEON's 2-lane kernels and
  // scalar probe can't (and don't claim to) hit these ratios.
  const bool wide_x86 = simd::best_supported() == simd::Isa::kAvx2 ||
                        simd::best_supported() == simd::Isa::kAvx512;
  const bool gate_armed = quick && wide_x86 && !kSanitized;
  const bool scan_ok = !gate_armed || scan_speedup >= 4.0;
  const bool probe_ok = !gate_armed || probe_speedup >= 3.0;
  const bool pass = scan_ok && probe_ok;

  if (gate_armed) {
    std::printf("\n  quick gates: scan >= 4x (%.2fx %s), probe >= 3x "
                "(%.2fx %s)\n",
                scan_speedup, scan_ok ? "ok" : "MISS", probe_speedup,
                probe_ok ? "ok" : "MISS");
  } else if (quick) {
    std::printf("\n  quick gates: skipped (%s)\n",
                kSanitized ? "sanitized build" : "no wide x86 SIMD unit");
  }
  if (!pass) {
    std::printf("  PERF REGRESSION: SIMD kernel layer below its gate\n");
  }

  report.metric("gate_armed", gate_armed);
  report.metric("pass", pass);
  report.write();
  return pass ? 0 : 1;
}
