#include "query/table.hpp"

#include <gtest/gtest.h>

namespace rb::query {
namespace {

Table people() {
  Table t;
  t.add_string_column("name", {"ada", "bob", "cyd", "dan"});
  t.add_int_column("age", {30, 25, 35, 25});
  t.add_int_column("team", {1, 2, 1, 3});
  return t;
}

TEST(Table, AddColumnsAndAccess) {
  const auto t = people();
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_TRUE(t.has_column("age"));
  EXPECT_FALSE(t.has_column("salary"));
  EXPECT_EQ(t.column_type("name"), ColumnType::kString);
  EXPECT_EQ(t.ints("age")[2], 35);
  EXPECT_EQ(t.strings("name")[0], "ada");
}

TEST(Table, RejectsBadColumns) {
  Table t;
  t.add_int_column("a", {1, 2});
  EXPECT_THROW(t.add_int_column("a", {3, 4}), std::invalid_argument);
  EXPECT_THROW(t.add_int_column("b", {1}), std::invalid_argument);
  EXPECT_THROW(t.add_int_column("", {1, 2}), std::invalid_argument);
  EXPECT_THROW(t.ints("missing"), std::invalid_argument);
  EXPECT_THROW(t.strings("a"), std::invalid_argument);
}

TEST(Table, GatherSelectsAndReorders) {
  const auto t = people();
  const auto picked = t.gather({2, 0});
  EXPECT_EQ(picked.row_count(), 2u);
  EXPECT_EQ(picked.strings("name")[0], "cyd");
  EXPECT_EQ(picked.strings("name")[1], "ada");
  EXPECT_EQ(picked.ints("age")[0], 35);
}

TEST(Table, GatherOutOfRangeThrows) {
  EXPECT_THROW(people().gather({99}), std::out_of_range);
}

TEST(Table, GatherStringColumnsWithDuplicatesAndEmpty) {
  const auto t = people();
  const auto dup = t.gather({1, 1, 3});
  EXPECT_EQ(dup.strings("name"),
            (std::vector<std::string>{"bob", "bob", "dan"}));
  EXPECT_EQ(dup.ints("age"), (std::vector<std::int64_t>{25, 25, 25}));
  const auto none = t.gather({});
  EXPECT_EQ(none.row_count(), 0u);
  EXPECT_EQ(none.column_count(), 3u);
  EXPECT_EQ(none.column_type("name"), ColumnType::kString);
}

TEST(Table, DuplicateColumnAcrossTypesThrows) {
  Table t;
  t.add_int_column("a", {1, 2});
  EXPECT_THROW(t.add_string_column("a", {"x", "y"}), std::invalid_argument);
  Table s;
  s.add_string_column("b", {"x"});
  EXPECT_THROW(s.add_int_column("b", {1}), std::invalid_argument);
}

TEST(Table, TypedAccessMismatchThrows) {
  const auto t = people();
  EXPECT_THROW(t.ints("name"), std::invalid_argument);
  EXPECT_THROW(t.strings("age"), std::invalid_argument);
  EXPECT_THROW(t.column_type("missing"), std::invalid_argument);
}

TEST(Table, ToStringShowsHeaderAndRows) {
  const auto text = people().to_string(2);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("ada"), std::string::npos);
  EXPECT_NE(text.find("(4 rows)"), std::string::npos);
}

TEST(Query, WhereIntFilters) {
  const auto result = interpret(
      people(),
      {FilterIntStage{"age", [](std::int64_t a) { return a > 26; }}});
  EXPECT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.strings("name")[0], "ada");
  EXPECT_EQ(result.strings("name")[1], "cyd");
}

TEST(Query, ChainedFiltersCompose) {
  const auto result =
      interpret(people(),
                {FilterIntStage{"age", [](std::int64_t a) { return a >= 25; }},
                 FilterIntStage{"team",
                                [](std::int64_t t) { return t == 1; }}});
  EXPECT_EQ(result.row_count(), 2u);
}

TEST(Query, OrderByAscendingAndDescending) {
  const auto asc = interpret(people(), {OrderByStage{"age"}});
  EXPECT_EQ(asc.ints("age").front(), 25);
  EXPECT_EQ(asc.ints("age").back(), 35);
  const auto desc = interpret(people(), {OrderByStage{"age", true}});
  EXPECT_EQ(desc.ints("age").front(), 35);
}

TEST(Query, OrderByIsStable) {
  // bob and dan both have age 25; their relative order must be preserved.
  const auto result = interpret(people(), {OrderByStage{"age"}});
  EXPECT_EQ(result.strings("name")[0], "bob");
  EXPECT_EQ(result.strings("name")[1], "dan");
}

TEST(Query, LimitTruncates) {
  EXPECT_EQ(interpret(people(), {LimitStage{2}}).row_count(), 2u);
  EXPECT_EQ(interpret(people(), {LimitStage{99}}).row_count(), 4u);
}

TEST(Query, GroupByIntKeySum) {
  const auto result = interpret(
      people(), {GroupByStage{"team", Aggregate::kSum, "age", "total"}});
  EXPECT_EQ(result.row_count(), 3u);
  // team 1: 30 + 35.
  const auto& teams = result.ints("team");
  const auto& totals = result.ints("total");
  for (std::size_t i = 0; i < teams.size(); ++i) {
    if (teams[i] == 1) { EXPECT_EQ(totals[i], 65); }
    if (teams[i] == 2) { EXPECT_EQ(totals[i], 25); }
  }
}

TEST(Query, GroupByStringKeyCount) {
  Table t;
  t.add_string_column("word", {"big", "data", "big", "big"});
  t.add_int_column("one", {1, 1, 1, 1});
  const auto result = interpret(
      std::move(t), {GroupByStage{"word", Aggregate::kCount, "one", "n"}});
  EXPECT_EQ(result.row_count(), 2u);
  const auto& words = result.strings("word");
  const auto& counts = result.ints("n");
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(counts[i], words[i] == "big" ? 3 : 1);
  }
}

TEST(Query, GroupByMinMax) {
  const auto min_result = interpret(
      people(), {GroupByStage{"team", Aggregate::kMin, "age", "m"}});
  const auto max_result = interpret(
      people(), {GroupByStage{"team", Aggregate::kMax, "age", "m"}});
  for (std::size_t i = 0; i < min_result.row_count(); ++i) {
    if (min_result.ints("team")[i] == 1) {
      EXPECT_EQ(min_result.ints("m")[i], 30);
    }
  }
  for (std::size_t i = 0; i < max_result.row_count(); ++i) {
    if (max_result.ints("team")[i] == 1) {
      EXPECT_EQ(max_result.ints("m")[i], 35);
    }
  }
}

TEST(Query, GroupByMinMaxHandlesNegativeValues) {
  Table t;
  t.add_int_column("g", {1, 1, 1, 2, 2});
  t.add_int_column("v", {-10, 5, -3, -7, -2});
  const auto group = [&t](Aggregate agg) {
    return interpret(t, {GroupByStage{"g", agg, "v", "m"}});
  };
  const auto min_r = group(Aggregate::kMin);
  const auto max_r = group(Aggregate::kMax);
  const auto sum_r = group(Aggregate::kSum);
  for (std::size_t i = 0; i < 2; ++i) {
    if (min_r.ints("g")[i] == 1) { EXPECT_EQ(min_r.ints("m")[i], -10); }
    if (min_r.ints("g")[i] == 2) { EXPECT_EQ(min_r.ints("m")[i], -7); }
    if (max_r.ints("g")[i] == 1) { EXPECT_EQ(max_r.ints("m")[i], 5); }
    if (max_r.ints("g")[i] == 2) { EXPECT_EQ(max_r.ints("m")[i], -2); }
    if (sum_r.ints("g")[i] == 1) { EXPECT_EQ(sum_r.ints("m")[i], -8); }
    if (sum_r.ints("g")[i] == 2) { EXPECT_EQ(sum_r.ints("m")[i], -9); }
  }
}

TEST(Query, JoinInnerSemantics) {
  Table teams;
  teams.add_int_column("team", {1, 2, 9});
  teams.add_string_column("team_name", {"arch", "db", "ghost"});
  const auto result =
      interpret(people(), {JoinStage{std::move(teams), "team", "team"}});
  // ada(1), bob(2), cyd(1) match; dan(3) and ghost(9) do not.
  EXPECT_EQ(result.row_count(), 3u);
  EXPECT_TRUE(result.has_column("team_name"));
  EXPECT_TRUE(result.has_column("team_r"));  // collision suffix
  for (std::size_t i = 0; i < result.row_count(); ++i) {
    EXPECT_EQ(result.ints("team")[i], result.ints("team_r")[i]);
  }
}

TEST(Query, JoinDuplicateKeysCrossProduct) {
  Table left;
  left.add_int_column("k", {5, 5});
  Table right;
  right.add_int_column("k", {5, 5, 5});
  const auto result =
      interpret(std::move(left), {JoinStage{std::move(right), "k", "k"}});
  EXPECT_EQ(result.row_count(), 6u);
}

TEST(Query, EmptyResultFlowsThroughPipeline) {
  const auto result = interpret(
      people(), {FilterIntStage{"age", [](std::int64_t) { return false; }},
                 GroupByStage{"team", Aggregate::kSum, "age", "t"},
                 OrderByStage{"t"}, LimitStage{5}});
  EXPECT_EQ(result.row_count(), 0u);
}

TEST(Query, EmptyTableSupportsEveryStageKind) {
  Table empty;
  empty.add_int_column("k", {});
  empty.add_int_column("v", {});
  empty.add_string_column("s", {});
  Table right;
  right.add_int_column("k", {1, 2});
  const auto result = interpret(
      empty,
      {FilterIntStage{"v", [](std::int64_t) { return true; }},
       JoinStage{right, "k", "k"},
       GroupByStage{"s", Aggregate::kSum, "v", "total"},
       OrderByStage{"total"}, LimitStage{3}});
  EXPECT_EQ(result.row_count(), 0u);
  EXPECT_EQ(result.column_names(),
            (std::vector<std::string>{"s", "total"}));
}

TEST(Query, MissingColumnSurfacesAtRun) {
  EXPECT_THROW(
      interpret(people(), {FilterIntStage{
                              "salary", [](std::int64_t) { return true; }}}),
      std::invalid_argument);
}

TEST(Query, FullAnalyticsPipeline) {
  // The README query shape: join, filter, aggregate, order, limit.
  Table orders;
  orders.add_int_column("order_id", {1, 2, 3, 4});
  orders.add_string_column("customer", {"acme", "acme", "bit", "core"});
  Table items;
  items.add_int_column("order_id", {1, 1, 2, 3, 3, 4});
  items.add_int_column("amount", {100, 50, 300, 20, 80, 500});

  const auto result = interpret(
      std::move(orders),
      {JoinStage{std::move(items), "order_id", "order_id"},
       FilterIntStage{"amount", [](std::int64_t a) { return a >= 50; }},
       GroupByStage{"customer", Aggregate::kSum, "amount", "revenue"},
       OrderByStage{"revenue", true}, LimitStage{2}});
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.strings("customer")[0], "core");  // 500
  EXPECT_EQ(result.ints("revenue")[0], 500);
  EXPECT_EQ(result.strings("customer")[1], "acme");  // 100+50+300
  EXPECT_EQ(result.ints("revenue")[1], 450);
}

}  // namespace
}  // namespace rb::query
