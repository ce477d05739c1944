// Unit tests for the vectorized push-based engine: column batches, the
// operator chain, the LSM-backed table codec, plans (each run checked
// against the same plan's interpret()), and the hash join and
// group-aggregate against small standard-library references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/exec/lsm_table.hpp"
#include "query/exec/operators.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "sim/random.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"

namespace rb::query::exec {
namespace {

Table people() {
  Table t;
  t.add_string_column("name", {"ada", "bob", "cyd", "dan"});
  t.add_int_column("age", {30, 25, 35, 25});
  t.add_int_column("team", {1, 2, 1, 3});
  return t;
}

void expect_tables_equal(const Table& a, const Table& b) {
  EXPECT_TRUE(a == b) << a.to_string() << "differs from\n" << b.to_string();
}

/// The engine's result, after checking that the interpreter agrees.
Table run_both(const Plan& plan, const ExecOptions& opts = {}) {
  Table out = plan.run(opts);
  expect_tables_equal(out, plan.interpret());
  return out;
}

/// The source and operator chain a run of `plan` took, in order.
std::vector<std::string> chain_of(const Plan& plan) {
  ExecStats stats;
  plan.run({}, &stats);
  std::vector<std::string> names{stats.source};
  for (const auto& op : stats.operators) names.push_back(op.op);
  return names;
}

TEST(BatchSchema, RejectsDuplicateAndEmptyNames) {
  BatchSchema s;
  s.add("a", ColumnType::kInt);
  EXPECT_THROW(s.add("a", ColumnType::kString), std::invalid_argument);
  EXPECT_THROW(s.add("", ColumnType::kInt), std::invalid_argument);
}

TEST(BatchSchema, TypedIndexOfChecksType) {
  auto s = BatchSchema::of(people());
  EXPECT_EQ(s.index_of("age"), 1u);
  EXPECT_EQ(s.index_of("age", ColumnType::kInt), 1u);
  EXPECT_THROW(s.index_of("age", ColumnType::kString), std::invalid_argument);
  EXPECT_THROW(s.index_of("missing"), std::invalid_argument);
}

TEST(ColumnBatch, SelectionNarrowsActiveRows) {
  auto schema = std::make_shared<BatchSchema>(BatchSchema::of(people()));
  ColumnBatch b{schema, 8};
  b.ints(1) = {30, 25, 35};
  b.ints(2) = {1, 2, 1};
  b.strings(0) = {"ada", "bob", "cyd"};
  b.set_row_count(3);
  EXPECT_EQ(b.active_count(), 3u);
  std::vector<std::uint32_t> sel{0, 2};
  b.set_selection(sel);
  EXPECT_EQ(b.active_count(), 2u);
  EXPECT_EQ(b.row_count(), 3u);
  std::vector<std::uint32_t> seen;
  b.for_each_active([&seen](std::uint32_t r) { seen.push_back(r); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 2}));
  b.clear();
  EXPECT_EQ(b.active_count(), 0u);
  EXPECT_FALSE(b.has_selection());
}

TEST(ColumnBatch, SetRowCountValidatesColumnLengths) {
  auto schema = std::make_shared<BatchSchema>(BatchSchema::of(people()));
  ColumnBatch b{schema, 8};
  b.ints(1) = {30, 25};
  EXPECT_THROW(b.set_row_count(2), std::invalid_argument);
}

TEST(Plan, ZeroBatchSizeThrows) {
  auto plan = PlanBuilder(people()).build();
  ExecOptions opts;
  opts.batch_size = 0;
  EXPECT_THROW(plan.run(opts), std::invalid_argument);
}

TEST(Plan, FilterMatchesReference) {
  run_both(PlanBuilder(people())
               .filter_int("age", [](std::int64_t a) { return a > 26; })
               .build());
}

TEST(Plan, RunsAcrossBatchSizes) {
  Table orders;
  std::vector<std::int64_t> ids, amounts;
  for (std::int64_t i = 0; i < 100; ++i) {
    ids.push_back(i % 7);
    amounts.push_back(i * 3 % 101);
  }
  orders.add_int_column("id", std::move(ids));
  orders.add_int_column("amount", std::move(amounts));
  const auto plan =
      PlanBuilder(orders)
          .filter_int("amount", [](std::int64_t a) { return a > 20; })
          .group_by("id", Aggregate::kSum, "amount", "total")
          .order_by("total", true)
          .build();
  for (const std::size_t bs : {1u, 3u, 64u, 4096u}) {
    ExecOptions opts;
    opts.batch_size = bs;
    run_both(plan, opts);
  }
}

TEST(Plan, DescribeShowsFusedChain) {
  auto plan = PlanBuilder(people())
                  .filter_int("age", [](std::int64_t) { return true; })
                  .order_by("age", true)
                  .limit(2)
                  .build();
  EXPECT_EQ(chain_of(plan),
            (std::vector<std::string>{"scan", "filter", "topk", "collect"}));
}

TEST(Plan, DescribeKeepsUnfusedOrderBy) {
  auto plan = PlanBuilder(people()).order_by("age").build();
  EXPECT_EQ(chain_of(plan),
            (std::vector<std::string>{"scan", "topk", "collect"}));
}

TEST(Plan, HugeLimitDoesNotFuseIntoTopK) {
  auto plan = PlanBuilder(people())
                  .order_by("age")
                  .limit(std::size_t{1} << 20)
                  .build();
  EXPECT_EQ(chain_of(plan),
            (std::vector<std::string>{"scan", "topk", "collect"}));
  EXPECT_EQ(plan.run().row_count(), 4u);
}

TEST(Plan, TopKMatchesStableSortPlusLimit) {
  Table t;
  t.add_int_column("v", {5, 1, 5, 3, 5, 1, 2, 5});
  t.add_int_column("row", {0, 1, 2, 3, 4, 5, 6, 7});
  ExecOptions opts;
  opts.batch_size = 2;
  run_both(PlanBuilder(t).order_by("v", true).limit(3).build(), opts);
}

TEST(Plan, LimitStopsScanEarly) {
  std::vector<std::int64_t> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Table t;
  t.add_int_column("v", std::move(v));
  const auto plan =
      PlanBuilder(t)
          .filter_int("v", [](std::int64_t x) { return x % 2 == 0; })
          .limit(5)
          .build();
  ExecOptions opts;
  opts.batch_size = 64;
  ExecStats stats;
  const auto result = plan.run(opts, &stats);
  expect_tables_equal(result, plan.interpret());
  EXPECT_LT(stats.source_rows, 10'000u);  // stopped after the limit filled
}

TEST(Plan, BlockingOperatorPreventsEarlyStop) {
  std::vector<std::int64_t> v(1'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Table t;
  t.add_int_column("v", std::move(v));
  const auto plan = PlanBuilder(t).order_by("v", true).limit(1).build();
  ExecStats stats;
  const auto result = plan.run({}, &stats);
  expect_tables_equal(result, plan.interpret());
  EXPECT_EQ(stats.source_rows, 1'000u);  // topk must see every row
}

TEST(Plan, ExecStatsRecordsChain) {
  Table teams;
  teams.add_int_column("team", {1, 2});
  teams.add_string_column("team_name", {"arch", "db"});
  const auto plan = PlanBuilder(people())
                        .join(teams, "team", "team")
                        .group_by("team_name", Aggregate::kCount, "age", "n")
                        .build();
  ExecStats stats;
  const auto result = plan.run({}, &stats);
  EXPECT_EQ(result.row_count(), 2u);
  EXPECT_EQ(stats.source, "scan");
  EXPECT_EQ(stats.source_rows, 4u);
  ASSERT_EQ(stats.operators.size(), 3u);  // join, group, collect
  EXPECT_EQ(stats.operators[0].op, "hash_join");
  EXPECT_EQ(stats.operators[0].rows_in, 4u);
  EXPECT_EQ(stats.operators[0].rows_out, 3u);  // dan's team 3 has no match
  EXPECT_EQ(stats.operators[0].build_rows, 2u);
  EXPECT_EQ(stats.operators[1].op, "group_aggregate");
  EXPECT_EQ(stats.operators[1].rows_in, 3u);
  EXPECT_EQ(stats.operators[2].op, "collect");
  EXPECT_EQ(stats.operators[2].rows_in, 2u);
}

/// A filter that directly follows a join (or another such filter) and
/// names a column of the join's left input runs before the join, which
/// then probes only the rows the filter keeps. A filter on a right column,
/// or on a right column renamed with "_r", stays after the join, and so
/// does every filter behind it.
TEST(Plan, LeftColumnFiltersRunBeforeJoin) {
  Table teams;
  teams.add_int_column("team", {1, 2, 1});
  teams.add_int_column("age", {40, 50, 60});  // joins as "age_r"
  teams.add_int_column("budget", {10, 20, 30});
  struct Case {
    const char* name;
    std::function<void(PlanBuilder&)> filters;
    std::vector<std::string> chain;
    std::uint64_t join_rows_in;
  };
  const auto team_not_2 = [](std::int64_t t) { return t != 2; };
  const std::vector<Case> cases{
      {"left", [](PlanBuilder& b) { b.filter_between("age", 30, 99); },
       {"scan", "filter", "hash_join", "collect"}, 2},
      {"right",
       [](PlanBuilder& b) {
         b.filter_int("budget", [](std::int64_t v) { return v >= 20; });
       },
       {"scan", "hash_join", "filter", "collect"}, 4},
      {"renamed right", [](PlanBuilder& b) { b.filter_between("age_r", 50, 99); },
       {"scan", "hash_join", "filter", "collect"}, 4},
      {"two left",
       [&](PlanBuilder& b) {
         b.filter_between("age", 25, 99).filter_int("team", team_not_2);
       },
       {"scan", "filter", "filter", "hash_join", "collect"}, 3},
      {"right then left",
       [](PlanBuilder& b) {
         b.filter_between("budget", 20, 99).filter_between("age", 30, 99);
       },
       {"scan", "hash_join", "filter", "filter", "collect"}, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PlanBuilder b{people()};
    b.join(teams, "team", "team");
    c.filters(b);
    const Plan plan = b.build();
    EXPECT_EQ(chain_of(plan), c.chain);
    ExecStats stats;
    const Table out = plan.run({}, &stats);
    const auto join = std::find_if(
        stats.operators.begin(), stats.operators.end(),
        [](const ExecStats::OpStat& op) { return op.op == "hash_join"; });
    ASSERT_NE(join, stats.operators.end());
    EXPECT_EQ(join->rows_in, c.join_rows_in);
    EXPECT_GT(out.row_count(), 0u);
    expect_tables_equal(out, plan.interpret());
  }
}

TEST(Plan, PublishesRegistryCountersWhenEnabled) {
  auto& reg = obs::Registry::global();
  reg.reset_for_test();
  obs::set_enabled(true);
  PlanBuilder(people())
      .filter_int("age", [](std::int64_t a) { return a >= 30; })
      .build()
      .run();
  obs::set_enabled(false);
  const obs::Labels labels{{"op", "filter"}};
  EXPECT_EQ(reg.counter("query.rows_in", labels).value(), 4u);
  EXPECT_EQ(reg.counter("query.rows_out", labels).value(), 2u);
  EXPECT_EQ(reg.counter("query.batches", labels).value(), 1u);
  reg.reset_for_test();
}

TEST(Plan, DisabledObsPublishesNothing) {
  auto& reg = obs::Registry::global();
  reg.reset_for_test();
  ASSERT_FALSE(obs::enabled());
  PlanBuilder(people())
      .filter_int("age", [](std::int64_t a) { return a >= 30; })
      .build()
      .run();
  const obs::Labels labels{{"op", "filter"}};
  EXPECT_EQ(reg.counter("query.rows_in", labels).value(), 0u);
}

TEST(Plan, EmitsOperatorSpansWhenTraced) {
  obs::TraceRecorder trace;
  trace.set_enabled(true);
  const auto plan =
      PlanBuilder(people())
          .filter_int("age", [](std::int64_t a) { return a >= 25; })
          .group_by("team", Aggregate::kSum, "age", "total")
          .build();
  ExecOptions opts;
  opts.trace = &trace;
  plan.run(opts);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);  // filter, group_aggregate, collect
  EXPECT_EQ(events[0].category, "query.op");
  EXPECT_EQ(events[0].name, "filter");
  EXPECT_EQ(events[1].name, "group_aggregate");
  EXPECT_EQ(events[2].name, "collect");
  bool found_rows_in = false;
  for (const auto& arg : events[0].args) {
    if (arg.key == "rows_in") {
      found_rows_in = true;
      EXPECT_EQ(arg.value, "4");
    }
  }
  EXPECT_TRUE(found_rows_in);
}

TEST(Plan, DeterministicAcrossRuns) {
  Table t;
  std::vector<std::int64_t> k, v;
  for (std::int64_t i = 0; i < 500; ++i) {
    k.push_back(i * 37 % 11);
    v.push_back(i * 17 % 97);
  }
  t.add_int_column("k", std::move(k));
  t.add_int_column("v", std::move(v));
  const auto plan = PlanBuilder(t)
                        .group_by("k", Aggregate::kMax, "v", "m")
                        .order_by("m", true)
                        .limit(5)
                        .build();
  const auto first = plan.run();
  for (int i = 0; i < 3; ++i) {
    expect_tables_equal(plan.run(), first);
  }
}

TEST(PlanBuilder, StandaloneChainMatchesQuery) {
  Table teams;
  teams.add_int_column("team", {1, 2});
  teams.add_string_column("team_name", {"arch", "db"});
  run_both(PlanBuilder(people())
               .join(teams, "team", "team")
               .filter_int("age", [](std::int64_t a) { return a >= 25; })
               .group_by("team_name", Aggregate::kSum, "age", "total")
               .order_by("total", true)
               .limit(10)
               .build());
}

TEST(LsmTable, RoundTripsTable) {
  storage::LsmStore store{storage::LsmOptions{}};
  store_table(store, "people", people());
  expect_tables_equal(load_table(store, "people"), people());
}

TEST(LsmTable, RoundTripsEmptyTable) {
  storage::LsmStore store{storage::LsmOptions{}};
  Table empty;
  empty.add_int_column("a", {});
  empty.add_string_column("b", {});
  store_table(store, "empty", empty);
  expect_tables_equal(load_table(store, "empty"), empty);
}

TEST(LsmTable, RejectsBadNames) {
  storage::LsmStore store{storage::LsmOptions{}};
  EXPECT_THROW(store_table(store, "", people()), std::invalid_argument);
  EXPECT_THROW(store_table(store, "a!b", people()), std::invalid_argument);
  EXPECT_THROW(load_table(store, "missing"), std::invalid_argument);
}

/// Stores people() and rewrites the record under `key` with `edit`
/// applied, using the documented "t!<table>!s" (schema) and
/// "t!<table>!g!<group %010u>" (row group) key layout.
template <typename Edit>
void store_people_with_edited_record(storage::LsmStore& store,
                                     const std::string& key, Edit edit) {
  store_table(store, "people", people());
  auto value = store.get(key);
  ASSERT_TRUE(value.has_value());
  edit(*value);
  store.put(key, *value);
}

/// people() fits one group: a u32 row count, the "name" section (a u32
/// length, then u32-prefixed strings), then 8 bytes a row of "age" and of
/// "team".
constexpr const char* kPeopleGroup0 = "t!people!g!0000000000";

/// Both readers of the stored table reject it.
void expect_corrupt(const storage::LsmStore& store) {
  EXPECT_THROW(load_table(store, "people"), std::runtime_error);
  EXPECT_THROW(PlanBuilder(store, "people").build().run(), std::runtime_error);
}

TEST(LsmTable, TruncatedRowThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  store_people_with_edited_record(store, kPeopleGroup0,
                                  [](std::string& v) { v.pop_back(); });
  expect_corrupt(store);
}

TEST(LsmTable, RowWithTrailingBytesThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  store_people_with_edited_record(store, kPeopleGroup0,
                                  [](std::string& v) { v.push_back('x'); });
  expect_corrupt(store);
}

TEST(LsmTable, RowCountPastIntSectionThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  // Five rows: the "team" section comes up 8 bytes short.
  store_people_with_edited_record(store, kPeopleGroup0, [](std::string& v) {
    ASSERT_EQ(v.at(0), 4);
    v[0] = 5;
  });
  expect_corrupt(store);
}

TEST(LsmTable, StringSectionPastValueThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  // The top byte of the "name" section length: ~2 GiB.
  store_people_with_edited_record(store, kPeopleGroup0,
                                  [](std::string& v) { v.at(7) = 0x7f; });
  expect_corrupt(store);
}

TEST(LsmTable, StringSectionWithTrailingBytesThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  // One byte more in the 28-byte "name" section than its four strings use.
  store_people_with_edited_record(store, kPeopleGroup0, [](std::string& v) {
    ASSERT_EQ(v.at(4), 28);
    v[4] = 29;
    v.insert(8 + 28, 1, 'x');
  });
  expect_corrupt(store);
}

TEST(LsmTable, ZeroRowGroupThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  // A well-formed group of no rows: the count and an empty "name" section.
  store_people_with_edited_record(store, kPeopleGroup0,
                                  [](std::string& v) { v.assign(8, '\0'); });
  expect_corrupt(store);
}

TEST(LsmTable, UnknownSchemaTagThrows) {
  storage::LsmStore store{storage::LsmOptions{}};
  // The record opens with the u32 column count; the first column's tag
  // byte follows ("name" is a string column, tag 's').
  store_people_with_edited_record(store, "t!people!s", [](std::string& v) {
    ASSERT_EQ(v.at(4), 's');
    v[4] = 'x';
  });
  EXPECT_THROW(load_table(store, "people"), std::runtime_error);
}

/// `rows` rows of an int column "v", spread over all 64 bits, and a string
/// column "s" of 0-8 letters. Row i does not depend on `rows`, so a shorter
/// table is a prefix of a longer one; another `salt` gives other values.
/// A full group of it is ~16 KiB.
Table int_string_table(std::size_t rows, std::uint64_t salt = 0) {
  std::vector<std::int64_t> v;
  std::vector<std::string> s;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t x = (i + salt * 1'000'003) * 0x9E3779B97F4A7C15ULL;
    v.push_back(static_cast<std::int64_t>(x));
    s.emplace_back((x >> 40) % 9, static_cast<char>('a' + (x >> 8) % 26));
  }
  Table t;
  t.add_int_column("v", std::move(v));
  t.add_string_column("s", std::move(s));
  return t;
}

/// Memtable bound under one full group of int_string_table: every full
/// group flushes (and rotates the WAL) as it is stored.
constexpr std::size_t kGroupFlushBytes = 8 << 10;

/// A filter → group-by plan and a limit plan over an int_string_table.
Plan group_report(PlanBuilder b) {
  return b.filter_int("v", [](std::int64_t v) { return v % 3 != 0; })
      .group_by("s", Aggregate::kSum, "v", "total")
      .build();
}
Plan first_ten(PlanBuilder b) { return b.limit(10).build(); }

TEST(LsmTable, StoringAgainReplacesTheTable) {
  storage::LsmOptions opts;
  opts.memtable_bytes = kGroupFlushBytes;
  storage::LsmStore store{opts};
  const Table three = int_string_table(2 * kGroupRows + 1, 1);
  const Table two = int_string_table(kGroupRows + 1, 2);
  store_table(store, "t", three);
  EXPECT_GE(store.stats().flushes, 2u);  // its groups reach the runs
  store_table(store, "t", two);
  expect_tables_equal(load_table(store, "t"), two);
  EXPECT_FALSE(store.get("t!t!g!0000000002").has_value());
  store_table(store, "t", three);
  expect_tables_equal(load_table(store, "t"), three);
  // A new schema drops groups that would not decode under it.
  store_table(store, "t", people());
  expect_tables_equal(load_table(store, "t"), people());
}

TEST(LsmTable, ScanIsByteIdenticalToInMemoryPlan) {
  storage::LsmStore store{storage::LsmOptions{}};
  store_table(store, "people", people());
  const auto report = [](PlanBuilder b) {
    return b.filter_int("age", [](std::int64_t a) { return a > 24; })
        .group_by("team", Aggregate::kSum, "age", "total")
        .order_by("total", true)
        .build();
  };
  ExecStats stats;
  expect_tables_equal(report(PlanBuilder{store, "people"}).run({}, &stats),
                      report(PlanBuilder{people()}).interpret());
  EXPECT_EQ(stats.source, "lsm_scan");
  EXPECT_EQ(stats.source_rows, 4u);
}

TEST(LsmTable, GroupBoundariesMatchInMemoryPlans) {
  for (const std::size_t rows : {0, 1, 1023, 1024, 1025, 2049}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const Table table = int_string_table(rows);
    storage::LsmStore store{storage::LsmOptions{}};
    store_table(store, "t", table);
    expect_tables_equal(load_table(store, "t"), table);
    for (const std::size_t batch : {1, 3, 64, 1000, 1024, 4096}) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      ExecOptions opts;
      opts.batch_size = batch;
      for (const auto plan : {group_report, first_ten}) {
        ExecStats lsm, mem;
        expect_tables_equal(plan(PlanBuilder{store, "t"}).run(opts, &lsm),
                            plan(PlanBuilder{table}).run(opts, &mem));
        EXPECT_EQ(lsm.source_rows, mem.source_rows);
      }
    }
  }
}

TEST(LsmTable, PlansReadOnlyTheirOwnTable) {
  storage::LsmOptions opts;
  opts.memtable_bytes = kGroupFlushBytes;
  storage::LsmStore store{opts};
  const Table src = int_string_table(3 * kGroupRows, 1);
  const Table src2 = int_string_table(2 * kGroupRows + 7, 2);
  const Table other = int_string_table(kGroupRows + 3, 3);
  // "src2" shares "src"'s name as a prefix, so its keys sort right after.
  store_table(store, "src", src);
  store_table(store, "src2", src2);
  store.flush();
  // Five full groups flushed, so the runs were compacted.
  EXPECT_GE(store.stats().flushes, 5u);
  EXPECT_GE(store.stats().compactions, 1u);
  // The newest "src" groups shadow the ones in the runs, and its third
  // group, next to "src2"'s first, is erased.
  store_table(store, "src", other);
  for (const auto& [name, table] :
       {std::pair<std::string, Table>{"src", other}, {"src2", src2}}) {
    expect_tables_equal(group_report(PlanBuilder{store, name}).run(),
                        group_report(PlanBuilder{table}).run());
    expect_tables_equal(first_ten(PlanBuilder{store, name}).run(),
                        first_ten(PlanBuilder{table}).run());
    expect_tables_equal(load_table(store, name), table);
  }
}

TEST(LsmTable, SurvivesFlushToSSTables) {
  storage::LsmOptions opts;
  opts.memtable_bytes = kGroupFlushBytes;
  storage::LsmStore store{opts};
  const Table t = int_string_table(5 * kGroupRows + 200);
  store_table(store, "wide", t);
  EXPECT_GE(store.stats().flushes, 5u);  // one per full group, mid-write
  store.flush();
  expect_tables_equal(load_table(store, "wide"), t);
}

TEST(LsmTable, SurvivesCrashRecoveryOnDurableStore) {
  // Two full groups flush, rotating the WAL; the partial third stays in it.
  const Table t = int_string_table(2 * kGroupRows + 100);
  storage::MemDevice device;
  {
    storage::LsmOptions opts;
    opts.memtable_bytes = kGroupFlushBytes;
    storage::LsmStore store{opts, device};
    store_table(store, "t", t);  // syncs internally
    EXPECT_EQ(store.stats().flushes, 2u);
  }
  // Power loss: only fsynced state survives. store_table group-committed
  // the whole table, so the recovered store serves it byte-identically.
  device.reopen();
  storage::LsmStore recovered{storage::LsmOptions{}, device};
  EXPECT_GE(recovered.recovery_info().wal_records_replayed, 1u);
  expect_tables_equal(load_table(recovered, "t"), t);
}

TEST(LsmTable, CrashMidStoreLeavesWholeGroupPrefix) {
  const Table t = int_string_table(2 * kGroupRows + 500);  // three groups
  storage::LsmOptions opts;
  opts.memtable_bytes = kGroupFlushBytes;
  std::uint64_t device_ops = 0;
  {
    storage::MemDevice device;
    storage::LsmStore store{opts, device};
    store_table(store, "t", t);
    EXPECT_EQ(store.stats().flushes, 2u);
    device_ops = device.ops();
  }
  // Recovered row counts; -1 is no table.
  std::set<std::int64_t> seen;
  for (const std::uint64_t tear : {0, 1, 7}) {
    for (std::uint64_t op = 0; op < device_ops; ++op) {
      SCOPED_TRACE("op " + std::to_string(op) + " tear " +
                   std::to_string(tear));
      faults::StorageFaultPlan plan;
      plan.crash_at(op, tear);
      storage::MemDevice device{std::move(plan)};
      try {
        storage::LsmStore store{opts, device};
        store_table(store, "t", t);
        ADD_FAILURE() << "the device did not crash";
      } catch (const storage::DeviceCrashed&) {
      }
      device.reopen();
      const storage::LsmStore recovered{opts, device};
      Table got;
      try {
        got = load_table(recovered, "t");
      } catch (const std::invalid_argument&) {  // no schema record
        seen.insert(-1);
        continue;
      }
      const std::size_t rows = got.row_count();
      EXPECT_TRUE(rows % kGroupRows == 0 || rows == t.row_count()) << rows;
      expect_tables_equal(got, int_string_table(rows));
      seen.insert(static_cast<std::int64_t>(rows));
    }
  }
  // The schema reaches the runs with the first group's flush, and the
  // partial third group stays in the WAL until the final sync, the last
  // device op: a crash recovers no table or one or two flushed groups.
  EXPECT_EQ(seen, (std::set<std::int64_t>{-1, 1024, 2048}));
}

/// --- HashJoin and GroupAggregate --------------------------------------

using Ints = std::vector<std::int64_t>;

Table kv_table(Ints keys, Ints values) {
  Table t;
  t.add_int_column("k", std::move(keys));
  t.add_int_column("v", std::move(values));
  return t;
}

Table random_kv(sim::Rng& rng, std::size_t rows, std::uint64_t distinct) {
  Ints keys, values;
  for (std::size_t i = 0; i < rows; ++i) {
    keys.push_back(static_cast<std::int64_t>(rng.uniform_index(distinct)));
    values.push_back(static_cast<std::int64_t>(rng.uniform_index(1000)));
  }
  return kv_table(std::move(keys), std::move(values));
}

Table join_kv(const Table& left, const Table& right) {
  return run_both(PlanBuilder(left).join(right, "k", "k").build());
}

Table group_kv(const Table& t, Aggregate agg) {
  return run_both(PlanBuilder(t).group_by("k", agg, "v", "out").build());
}

TEST(HashJoin, EmptyInputs) {
  const auto rows = kv_table({1}, {1});
  const auto empty = kv_table({}, {});
  EXPECT_EQ(join_kv(empty, rows).row_count(), 0u);
  EXPECT_EQ(join_kv(rows, empty).row_count(), 0u);
  EXPECT_EQ(join_kv(empty, empty).row_count(), 0u);
}

TEST(HashJoin, SimpleMatch) {
  const auto out =
      join_kv(kv_table({1, 2}, {10, 20}), kv_table({2, 3}, {200, 300}));
  EXPECT_EQ(out.ints("k"), Ints{2});
  EXPECT_EQ(out.ints("v"), Ints{20});
  EXPECT_EQ(out.ints("v_r"), Ints{200});
}

TEST(HashJoin, DuplicateKeysProduceCrossProduct) {
  // Left-major: each left row, then its matches in right-row order.
  const auto out =
      join_kv(kv_table({5, 5}, {1, 2}), kv_table({5, 5, 5}, {10, 20, 30}));
  EXPECT_EQ(out.ints("v"), (Ints{1, 1, 1, 2, 2, 2}));
  EXPECT_EQ(out.ints("v_r"), (Ints{10, 20, 30, 10, 20, 30}));
}

TEST(HashJoin, CountMatchesNestedLoopReference) {
  sim::Rng rng{47};
  const auto left = random_kv(rng, 800, 100);
  const auto right = random_kv(rng, 800, 100);
  std::size_t reference = 0;
  for (const auto l : left.ints("k")) {
    for (const auto r : right.ints("k")) reference += l == r ? 1 : 0;
  }
  EXPECT_EQ(join_kv(left, right).row_count(), reference);
}

TEST(HashJoin, MaterializedMatchesCount) {
  sim::Rng rng{53};
  const auto left = random_kv(rng, 2000, 300);
  const auto right = random_kv(rng, 2000, 300);
  ExecStats stats;
  const auto out =
      PlanBuilder(left).join(right, "k", "k").build().run({}, &stats);
  ASSERT_EQ(stats.operators.front().op, "hash_join");
  EXPECT_EQ(stats.operators.front().rows_out, out.row_count());
  EXPECT_EQ(stats.operators.front().build_rows, right.row_count());
}

TEST(HashJoin, KeyZeroJoins) {
  // Key 0 matches key 0 only, never INT64_MIN.
  const auto out = join_kv(kv_table({0, INT64_MIN}, {1, 2}),
                           kv_table({INT64_MIN, 0, 0}, {10, 20, 30}));
  EXPECT_EQ(out.ints("v"), (Ints{1, 1, 2}));
  EXPECT_EQ(out.ints("v_r"), (Ints{20, 30, 10}));
  EXPECT_EQ(join_kv(kv_table({0}, {1}), kv_table({INT64_MIN}, {2}))
                .row_count(),
            0u);
}

TEST(HashJoin, SkewedKeysStillCorrect) {
  // Zipf-skewed foreign keys: every left row matches exactly one right row.
  sim::Rng rng{59};
  const sim::ZipfDistribution zipf{200, 1.2};
  Ints foreign, primary;
  for (int i = 0; i < 10000; ++i) {
    foreign.push_back(static_cast<std::int64_t>(zipf(rng)));
  }
  for (std::int64_t k = 0; k < 200; ++k) primary.push_back(k);
  EXPECT_EQ(join_kv(kv_table(foreign, Ints(foreign.size())),
                    kv_table(primary, primary))
                .row_count(),
            10000u);
}

TEST(Aggregate, EmptyInput) {
  EXPECT_EQ(group_kv(kv_table({}, {}), Aggregate::kSum).row_count(), 0u);
}

TEST(Aggregate, SumPerGroup) {
  const auto out =
      group_kv(kv_table({1, 2, 1, 2, 3}, {10, 20, 5, 1, 7}), Aggregate::kSum);
  EXPECT_EQ(out.ints("k"), (Ints{1, 2, 3}));
  EXPECT_EQ(out.ints("out"), (Ints{15, 21, 7}));
}

TEST(Aggregate, CountIgnoresPayload) {
  const auto out =
      group_kv(kv_table({1, 1, 2}, {999, 999, 999}), Aggregate::kCount);
  EXPECT_EQ(out.ints("out"), (Ints{2, 1}));
}

TEST(Aggregate, MinAndMax) {
  const auto t = kv_table({1, 1, 1}, {10, -3, 99});
  EXPECT_EQ(group_kv(t, Aggregate::kMin).ints("out"), Ints{-3});
  EXPECT_EQ(group_kv(t, Aggregate::kMax).ints("out"), Ints{99});
}

TEST(Aggregate, ResultsSortedByKey) {
  // Unsigned key order: non-negative keys first, then the negative ones.
  const auto out =
      group_kv(kv_table({-1, 7, INT64_MIN, 0, 7, -1}, Ints(6)),
               Aggregate::kSum);
  EXPECT_EQ(out.ints("k"), (Ints{0, 7, INT64_MIN, -1}));
}

TEST(Aggregate, MatchesStdMapReference) {
  sim::Rng rng{11};
  const auto t = random_kv(rng, 20000, 500);
  std::map<std::int64_t, std::int64_t> reference;
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    reference[t.ints("k")[i]] += t.ints("v")[i];
  }
  Ints keys, sums;
  for (const auto& [k, sum] : reference) {
    keys.push_back(k);
    sums.push_back(sum);
  }
  const auto out = group_kv(t, Aggregate::kSum);
  EXPECT_EQ(out.ints("k"), keys);
  EXPECT_EQ(out.ints("out"), sums);
}

TEST(Aggregate, KeyZeroGrouped) {
  // Keys 0 and INT64_MIN are two groups.
  const auto out = group_kv(kv_table({0, INT64_MIN, 0, 5}, {1, 10, 100, 1000}),
                            Aggregate::kSum);
  EXPECT_EQ(out.ints("k"), (Ints{0, 5, INT64_MIN}));
  EXPECT_EQ(out.ints("out"), (Ints{101, 1000, 10}));
}

TEST(DistinctKeys, CountsUnique) {
  sim::Rng rng{13};
  EXPECT_EQ(group_kv(random_kv(rng, 10000, 73), Aggregate::kCount).row_count(),
            73u);
}

}  // namespace
}  // namespace rb::query::exec
