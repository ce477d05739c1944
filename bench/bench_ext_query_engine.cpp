// EXT-QUERY — Vectorized push-based engine vs the row-at-a-time reference
// interpreter on a TPC-H-flavored join → filter → aggregate → top-k
// workload (Rec 10: accelerated building blocks inside a framework).
//
// Sweeps batch size, join order, and table scale; every cell cross-checks
// that the vectorized result is byte-identical to Plan::interpret(), and
// one case runs the same plan over an LSM-backed scan (storage substrate
// instead of a resident table). In --quick mode the bench gates on the
// vectorized path being >= 3x faster than the interpreter on the
// join-aggregate query at the largest quick scale and exits 1 on failure
// (report-only under sanitizer builds, whose per-access overhead distorts
// ratios).

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "query/exec/lsm_table.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "storage/lsm.hpp"
#include "workloads/generators.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

using rb::query::Aggregate;
using rb::query::Table;
using rb::query::exec::Plan;
using rb::query::exec::PlanBuilder;
using rb::workloads::QueryTables;

/// The benchmark query: revenue by customer over large-ticket lineitems,
/// top 10. `scan` probes a hash join built on `build`, so the caller picks
/// the join order (lineitems probing an orders build, or the reverse).
Plan make_plan(PlanBuilder scan, const Table& build) {
  return scan.join(build, "order_id", "order_id")
      // Range form so the vectorized engine takes the SIMD selection path;
      // the interpreter evaluates the identical lo <= a < hi predicate.
      .filter_between("amount", 20'000,
                      std::numeric_limits<std::int64_t>::max())
      .group_by("customer", Aggregate::kSum, "amount", "revenue")
      .order_by("revenue", true)
      .limit(10)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  rb::bench::Report report{"ext_query_engine", argc, argv};
  report.config("quick", quick);
  report.config("sanitized", kSanitized);

  rb::bench::heading("EXT-QUERY",
                     "vectorized push-based engine vs row-at-a-time "
                     "interpreter (join->filter->aggregate->topk)");

  const std::vector<std::size_t> scales =
      quick ? std::vector<std::size_t>{2'000, 20'000}
            : std::vector<std::size_t>{2'000, 20'000, 100'000};
  const std::vector<std::size_t> batch_sizes{256, 1024, 4096};
  const int reps = quick ? 3 : 5;

  std::printf(
      "  %-9s %-11s %-6s %10s %12s %9s %s\n", "orders", "join-order",
      "batch", "fluent-ms", "vector-ms", "speedup", "identical");

  bool all_identical = true;
  double gate_speedup = 0.0;  // largest scale, items-probe, batch 1024

  for (const std::size_t n_orders : scales) {
    const auto tables = rb::workloads::order_query_tables(
        n_orders, 4.0, 0.8, /*seed=*/42 + n_orders);
    for (const bool items_probe : {true, false}) {
      const Plan plan =
          items_probe ? make_plan(PlanBuilder{tables.lineitems}, tables.orders)
                      : make_plan(PlanBuilder{tables.orders}, tables.lineitems);
      const Table reference = plan.interpret();
      const double fluent_ms = rb::bench::best_ms(reps, [&plan] {
        const Table t = plan.interpret();
        if (t.row_count() > 10) std::abort();  // keep the result live
      });
      for (const std::size_t batch : batch_sizes) {
        rb::query::exec::ExecOptions opts;
        opts.batch_size = batch;
        const bool identical = plan.run(opts) == reference;
        all_identical = all_identical && identical;
        const double vec_ms = rb::bench::best_ms(reps, [&plan, &opts] {
          const Table t = plan.run(opts);
          if (t.row_count() > 10) std::abort();
        });
        const double speedup = fluent_ms / vec_ms;
        if (n_orders == scales.back() && items_probe && batch == 1024) {
          gate_speedup = speedup;
        }
        std::printf("  %-9zu %-11s %-6zu %10.2f %12.2f %8.2fx %s\n",
                    n_orders, items_probe ? "items|orders" : "orders|items",
                    batch, fluent_ms, vec_ms, speedup,
                    identical ? "yes" : "NO");
        const std::string tag =
            std::to_string(n_orders) + "." +
            (items_probe ? "items_probe" : "orders_probe") + ".b" +
            std::to_string(batch);
        report.metric(tag + ".fluent_ms", fluent_ms);
        report.metric(tag + ".vector_ms", vec_ms);
        report.metric(tag + ".speedup", speedup);
      }
    }
  }

  // LSM-backed scan: same chain over the storage substrate.
  bool lsm_identical = true;
  {
    const auto tables = rb::workloads::order_query_tables(
        scales.front(), 4.0, 0.8, /*seed=*/7);
    rb::storage::LsmOptions lsm_opts;
    lsm_opts.memtable_bytes = 1 << 16;  // forces SSTable flushes
    rb::storage::LsmStore store{lsm_opts};
    rb::query::exec::store_table(store, "lineitems", tables.lineitems);
    const Plan plan = make_plan(PlanBuilder{store, "lineitems"}, tables.orders);
    const Table reference =
        make_plan(PlanBuilder{tables.lineitems}, tables.orders).interpret();
    lsm_identical = plan.run() == reference;
    const double lsm_ms =
        rb::bench::best_ms(reps, [&plan] { (void)plan.run(); });
    std::printf("  lsm-backed scan (%zu orders): %.2f ms, identical: %s\n",
                scales.front(), lsm_ms, lsm_identical ? "yes" : "NO");
    report.metric("lsm.vector_ms", lsm_ms);
  }

  const bool gate_ok = !quick || gate_speedup >= 3.0 || kSanitized;
  const bool pass = all_identical && lsm_identical && gate_ok;

  std::printf("\n  join-aggregate speedup at largest scale: %.2fx "
              "(quick gate: >=3x)\n",
              gate_speedup);
  if (!all_identical || !lsm_identical) {
    std::printf("  FAIL: vectorized results diverged from the reference "
                "interpreter\n");
  }
  if (!gate_ok) {
    std::printf("  PERF REGRESSION: vectorized path only %.2fx over "
                "row-at-a-time (expected >=3x)\n",
                gate_speedup);
  }
  if (kSanitized && quick && gate_speedup < 3.0) {
    std::printf("  (sanitized build: speed gate is report-only)\n");
  }

  report.metric("speedup_join_agg", gate_speedup);
  report.metric("results_identical", all_identical);
  report.metric("lsm_identical", lsm_identical);
  report.metric("pass", pass);
  report.write();
  return pass ? 0 : 1;
}
