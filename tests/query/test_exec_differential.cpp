// Differential fuzzing between the two query execution paths: randomized
// tables and stage chains must produce byte-identical results from the
// row-at-a-time reference interpreter (Query::run) and the vectorized
// push-based engine (exec::compile), across batch sizes and with the scan
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

/// Append 1–4 random stages to `q`, returning a column known to remain an
/// int column of the final schema (for order_by).
void random_stages(sim::Rng& rng, Query& q) {
  const std::size_t n_stages = 1 + rng.uniform_index(4);
  bool aggregated = false;
  bool joined = false;
  for (std::size_t s = 0; s < n_stages; ++s) {
    switch (aggregated ? rng.uniform_index(2) + 4 : rng.uniform_index(6)) {
      case 0: {
        const std::int64_t cut =
            static_cast<std::int64_t>(rng.uniform_index(2001)) - 1000;
        q.where_int("value", [cut](std::int64_t v) { return v >= cut; });
        break;
      }
      case 1: {
        const bool keep_red = rng.chance(0.5);
        q.where_string("tag", [keep_red](const std::string& t) {
          return keep_red ? t == "red" : t > "c";
        });
        break;
      }
      case 2:
        if (!joined) {
          q.join(random_right(rng, 1 + rng.uniform_index(40)), "key", "key");
          joined = true;
        }
        break;
      case 3: {
        const bool by_tag = rng.chance(0.5);
        const auto agg = static_cast<Aggregate>(rng.uniform_index(4));
        q.group_by(by_tag ? "tag" : "key", agg, "value", "out");
        aggregated = true;
        break;
      }
      case 4:
        q.order_by(aggregated ? "out" : "value", rng.chance(0.5));
        break;
      default:
        q.limit(rng.uniform_index(30));
        break;
    }
  }
}

TEST(Differential, RandomPlansByteIdenticalAcrossBatchSizes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng{seed};
    auto source = random_table(rng, 1 + rng.uniform_index(300));
    Query q{source};
    random_stages(rng, q);
    Table reference;
    try {
      reference = q.run();
    } catch (const std::invalid_argument&) {
      // Chain referenced a column removed by an earlier stage; both paths
      // must agree it is an error.
      EXPECT_THROW(q.run_vectorized(), std::invalid_argument)
          << "seed " << seed;
      continue;
    }
    for (const std::size_t bs : {1u, 3u, 64u, 1024u}) {
      expect_tables_equal(q.run_vectorized(bs), reference,
                          "seed " + std::to_string(seed) + " batch " +
                              std::to_string(bs));
    }
  }
}

TEST(Differential, LsmBackedScanByteIdentical) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    sim::Rng rng{seed};
    auto source = random_table(rng, 1 + rng.uniform_index(200));
    storage::LsmOptions lsm_opts;
    lsm_opts.memtable_bytes = 1 << 12;  // several flushes per table
    storage::LsmStore store{lsm_opts};
    store_table(store, "src", source);

    const std::int64_t cut =
        static_cast<std::int64_t>(rng.uniform_index(2001)) - 1000;
    const bool desc = rng.chance(0.5);
    const auto reference =
        Query(source)
            .where_int("value", [cut](std::int64_t v) { return v >= cut; })
            .group_by("tag", Aggregate::kSum, "value", "total")
            .order_by("total", desc)
            .limit(3)
            .run();
    auto plan =
        PlanBuilder(store, "src")
            .filter_int("value", [cut](std::int64_t v) { return v >= cut; })
            .group_by("tag", Aggregate::kSum, "value", "total")
            .order_by("total", desc)
            .limit(3)
            .build();
    for (const std::size_t bs : {7u, 256u}) {
      ExecOptions opts;
      opts.batch_size = bs;
      expect_tables_equal(plan.run(opts), reference,
                          "seed " + std::to_string(seed) + " batch " +
                              std::to_string(bs));
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
  auto q = Query(empty)
               .where_int("value", [](std::int64_t) { return true; })
               .join(right, "key", "key")
               .group_by("tag", Aggregate::kCount, "value", "n")
               .order_by("n", true)
               .limit(10);
  expect_tables_equal(q.run_vectorized(), q.run(), "empty source");
}

}  // namespace
}  // namespace rb::query::exec
