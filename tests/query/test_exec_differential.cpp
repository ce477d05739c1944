// Differential fuzzing between the two query execution paths: randomized
// tables and stage chains must produce byte-identical results from the
// row-at-a-time reference interpreter (Plan::interpret) and the vectorized
// push-based engine (Plan::run), across batch sizes and with the scan
// backed by the LSM store. Seeds are fixed, so failures replay exactly.

#include <gtest/gtest.h>

#include "query/exec/lsm_table.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "sim/random.hpp"
#include "storage/lsm.hpp"

namespace rb::query::exec {
namespace {

void expect_tables_equal(const Table& a, const Table& b,
                         const std::string& context) {
  ASSERT_TRUE(a == b) << context << '\n'
                      << a.to_string() << "differs from\n"
                      << b.to_string();
}

/// Join and group key: a small value of either sign, or one time in ten a
/// key that hash tables must keep apart (0, INT64_MIN, INT64_MAX).
std::int64_t random_key(sim::Rng& rng) {
  if (rng.chance(0.1)) {
    constexpr std::int64_t kEdges[] = {0, INT64_MIN, INT64_MAX};
    return kEdges[rng.uniform_index(3)];
  }
  return static_cast<std::int64_t>(rng.uniform_index(12)) - 6;
}

Table random_table(sim::Rng& rng, std::size_t rows) {
  Table t;
  std::vector<std::int64_t> key, value, wide;
  std::vector<std::string> tag;
  const char* tags[] = {"red", "green", "blue", "cyan", "violet"};
  for (std::size_t i = 0; i < rows; ++i) {
    key.push_back(random_key(rng));
    // Mix in negatives and large magnitudes to stress sum wraparound and
    // signed min/max.
    value.push_back(static_cast<std::int64_t>(rng.uniform_index(2001)) -
                    1000);
    wide.push_back(rng.chance(0.05)
                       ? (rng.chance(0.5) ? INT64_MAX : INT64_MIN)
                       : static_cast<std::int64_t>(rng.uniform_index(1000)));
    tag.push_back(tags[rng.uniform_index(5)]);
  }
  t.add_int_column("key", std::move(key));
  t.add_int_column("value", std::move(value));
  t.add_int_column("wide", std::move(wide));
  t.add_string_column("tag", std::move(tag));
  return t;
}

Table random_right(sim::Rng& rng, std::size_t rows) {
  Table t;
  std::vector<std::int64_t> key, weight;
  for (std::size_t i = 0; i < rows; ++i) {
    key.push_back(random_key(rng));
    weight.push_back(static_cast<std::int64_t>(rng.uniform_index(50)));
  }
  t.add_int_column("key", std::move(key));
  t.add_int_column("weight", std::move(weight));
  return t;
}

/// Append 1–4 random stages to `b`. Half the int filters are ranges on
/// `value` or `wide`, with an INT64_MIN or INT64_MAX bound one time in
/// ten: a range filter takes the SIMD selection path on a dense batch and
/// the predicate fallback behind another filter. After a join, one filter
/// in three names the right table's `weight`, which must not run ahead of
/// the join.
void random_stages(sim::Rng& rng, PlanBuilder& b) {
  const std::size_t n_stages = 1 + rng.uniform_index(4);
  bool aggregated = false;
  bool joined = false;
  for (std::size_t s = 0; s < n_stages; ++s) {
    switch (aggregated ? rng.uniform_index(2) + 3 : rng.uniform_index(5)) {
      case 0: {
        if (joined && rng.chance(1.0 / 3)) {
          const auto lo = static_cast<std::int64_t>(rng.uniform_index(50));
          b.filter_between("weight", lo, lo + 25);
          break;
        }
        if (rng.chance(0.5)) {
          const char* column = rng.chance(0.5) ? "value" : "wide";
          std::int64_t lo =
              static_cast<std::int64_t>(rng.uniform_index(2001)) - 1000;
          std::int64_t hi =
              lo + static_cast<std::int64_t>(rng.uniform_index(1500));
          if (rng.chance(0.1)) {
            const std::int64_t extreme =
                rng.chance(0.5) ? INT64_MIN : INT64_MAX;
            (rng.chance(0.5) ? lo : hi) = extreme;
          }
          b.filter_between(column, lo, hi);
          break;
        }
        const std::int64_t cut =
            static_cast<std::int64_t>(rng.uniform_index(2001)) - 1000;
        b.filter_int("value", [cut](std::int64_t v) { return v >= cut; });
        break;
      }
      case 1:
        if (!joined) {
          b.join(random_right(rng, 1 + rng.uniform_index(40)), "key", "key");
          joined = true;
        }
        break;
      case 2: {
        const bool by_tag = rng.chance(0.5);
        const auto agg = static_cast<Aggregate>(rng.uniform_index(4));
        b.group_by(by_tag ? "tag" : "key", agg, "value", "out");
        aggregated = true;
        break;
      }
      case 3:
        b.order_by(aggregated ? "out" : "value", rng.chance(0.5));
        break;
      default:
        b.limit(rng.uniform_index(30));
        break;
    }
  }
}

/// Runs `plan` at each batch size and checks it against plan.interpret();
/// a chain the interpreter rejects must be rejected by the engine too.
void expect_run_matches_interpret(const Plan& plan,
                                  std::initializer_list<std::size_t> batches,
                                  const std::string& context) {
  Table reference;
  try {
    reference = plan.interpret();
  } catch (const std::invalid_argument&) {
    // The chain referenced a column removed by an earlier stage.
    EXPECT_THROW(plan.run(), std::invalid_argument) << context;
    return;
  }
  for (const std::size_t bs : batches) {
    ExecOptions opts;
    opts.batch_size = bs;
    expect_tables_equal(plan.run(opts), reference,
                        context + " batch " + std::to_string(bs));
  }
}

TEST(Differential, RandomPlansByteIdenticalAcrossBatchSizes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng{seed};
    PlanBuilder b{random_table(rng, 1 + rng.uniform_index(300))};
    random_stages(rng, b);
    expect_run_matches_interpret(b.build(), {1, 3, 64, 1024},
                                 "seed " + std::to_string(seed));
  }
}

TEST(Differential, LsmBackedScanByteIdentical) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    sim::Rng rng{seed};
    // Up to three row groups, the last one partial.
    const auto source =
        random_table(rng, 1 + rng.uniform_index(3 * kGroupRows));
    storage::LsmOptions lsm_opts;
    lsm_opts.memtable_bytes = 1 << 12;  // every full group flushes
    storage::LsmStore store{lsm_opts};
    store_table(store, "src", source);
    EXPECT_GE(store.stats().flushes, source.row_count() / kGroupRows);
    // The in-memory oracle: interpret() reads the table back through
    // load_table, so first pin that to the table stored.
    expect_tables_equal(load_table(store, "src"), source,
                        "seed " + std::to_string(seed) + " load_table");

    PlanBuilder b{store, "src"};
    random_stages(rng, b);
    expect_run_matches_interpret(b.build(), {7, 256},
                                 "seed " + std::to_string(seed));
  }
}

/// Every order_by runs as one TopK, whatever its limit: 70,000 rows (past
/// 2^16) over 100 distinct keys (heavy ties, so an unstable sort would
/// show), both directions, no limit and limits on each side of every
/// boundary, each byte-compared with the interpreter's stable sort.
TEST(Differential, SortMatchesStableSortAtEveryLimit) {
  constexpr std::size_t kRows = 70'000;
  sim::Rng rng{24};
  std::vector<std::int64_t> key, row;
  std::vector<std::string> tag;
  for (std::size_t i = 0; i < kRows; ++i) {
    key.push_back(static_cast<std::int64_t>(rng.uniform_index(100)) - 50);
    row.push_back(static_cast<std::int64_t>(i));
    tag.push_back(std::to_string(i % 7));
  }
  Table t;
  t.add_int_column("key", std::move(key));
  t.add_int_column("row", std::move(row));
  t.add_string_column("tag", std::move(tag));

  const std::size_t limits[] = {0,      1,         1'023, 65'536,
                                65'537, kRows - 1, kRows, kRows + 1};
  for (const bool descending : {false, true}) {
    for (std::size_t v = 0; v <= std::size(limits); ++v) {
      PlanBuilder b{t};
      b.order_by("key", descending);
      std::string context = descending ? "desc" : "asc";
      if (v < std::size(limits)) {
        b.limit(limits[v]);
        context += " limit " + std::to_string(limits[v]);
      }
      const Plan plan = b.build();
      ExecStats stats;
      plan.run({}, &stats);
      ASSERT_EQ(stats.operators.size(), 2u) << context;
      EXPECT_EQ(stats.operators[0].op, "topk") << context;
      expect_run_matches_interpret(plan, {7, 1024, 4096}, context);
    }
  }
}

TEST(Differential, EmptySourceAllStageKinds) {
  Table empty;
  empty.add_int_column("key", {});
  empty.add_int_column("value", {});
  empty.add_string_column("tag", {});
  Table right;
  right.add_int_column("key", {1, 2});
  const auto plan =
      PlanBuilder(empty)
          .filter_int("value", [](std::int64_t) { return true; })
          .join(right, "key", "key")
          .group_by("tag", Aggregate::kCount, "value", "n")
          .order_by("n", true)
          .limit(10)
          .build();
  expect_tables_equal(plan.run(), plan.interpret(), "empty source");
}

}  // namespace
}  // namespace rb::query::exec
