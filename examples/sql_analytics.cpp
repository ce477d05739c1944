// SQL-era analytics on the framework-era substrate (paper Sec IV.C.1).
//
// The query layer states a classic revenue report — join orders to line
// items, filter, aggregate, rank — as one PlanBuilder chain. The reference
// interpreter runs it a table per stage; the same plan then runs through
// the vectorized push-based engine (query/exec), which streams column
// batches through an operator pipeline built on the accelerated building
// blocks (SIMD hash probe, selection scan, top-k sift), and the run's
// ExecStats name the physical plan it took; the two answers must be
// byte-identical. Finally the report is recomputed through the raw
// dataflow API to show the two abstraction levels the paper contrasts
// produce identical answers.

#include <cstdio>
#include <cstdlib>

#include "dataflow/dataset.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace rb;

  // Synthetic financial-sector tables (Zipf-skewed foreign keys).
  const auto tables = workloads::order_query_tables(50'000, 4.0, 0.9, 7);

  // SELECT customer, SUM(amount) AS revenue
  // FROM orders JOIN items USING (order_id)
  // WHERE amount >= 5000
  // GROUP BY customer ORDER BY revenue DESC LIMIT 10;
  const auto plan =
      query::exec::PlanBuilder(tables.orders)
          .join(tables.lineitems, "order_id", "order_id")
          .filter_int("amount", [](std::int64_t a) { return a >= 5000; })
          .group_by("customer", query::Aggregate::kSum, "amount", "revenue")
          .order_by("revenue", true)
          .limit(10)
          .build();
  const auto report = plan.interpret();
  std::printf("top customers by revenue (fluent interpreter):\n%s\n",
              report.to_string().c_str());

  // --- The same plan on the vectorized push-based engine ---
  query::exec::ExecStats stats;
  const auto vectorized = plan.run({}, &stats);
  std::printf("physical plan: %s", stats.source.c_str());
  for (const auto& op : stats.operators) std::printf(" %s", op.op.c_str());
  std::printf("\n\ntop customers by revenue (vectorized pipeline):\n%s\n",
              vectorized.to_string().c_str());

  const bool identical = report == vectorized;
  std::printf("pipeline result identical to interpreter: %s\n\n",
              identical ? "yes" : "NO");
  if (!identical) return EXIT_FAILURE;

  // --- The same report through the raw dataflow API ---
  dataflow::Context ctx;
  std::vector<std::pair<std::int64_t, std::int64_t>> order_pairs, item_pairs;
  const auto& order_ids = tables.orders.ints("order_id");
  const auto& customers = tables.orders.ints("customer");
  for (std::size_t i = 0; i < order_ids.size(); ++i) {
    order_pairs.emplace_back(order_ids[i], customers[i]);
  }
  const auto& item_orders = tables.lineitems.ints("order_id");
  const auto& amounts = tables.lineitems.ints("amount");
  for (std::size_t i = 0; i < item_orders.size(); ++i) {
    if (amounts[i] >= 5000) item_pairs.emplace_back(item_orders[i], amounts[i]);
  }
  auto ods = dataflow::Dataset<std::pair<std::int64_t, std::int64_t>>::
      from_vector(ctx, order_pairs);
  auto ids = dataflow::Dataset<std::pair<std::int64_t, std::int64_t>>::
      from_vector(ctx, item_pairs);
  auto joined = dataflow::join(ods, ids);
  auto by_customer = joined.map([](const auto& row) {
    return std::make_pair(row.second.first, row.second.second);
  });
  auto revenue = dataflow::reduce_by_key(
      by_customer,
      [](std::int64_t a, std::int64_t b) { return a + b; });

  std::int64_t best_customer = -1, best_revenue = -1;
  for (const auto& [customer, total] : revenue.collect()) {
    if (total > best_revenue) {
      best_revenue = total;
      best_customer = customer;
    }
  }
  std::printf("dataflow API agrees: top customer %lld with revenue %lld "
              "(query layer: %lld / %lld)\n",
              static_cast<long long>(best_customer),
              static_cast<long long>(best_revenue),
              static_cast<long long>(report.ints("customer")[0]),
              static_cast<long long>(report.ints("revenue")[0]));
  return 0;
}
