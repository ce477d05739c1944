#include "dataflow/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "sim/random.hpp"

namespace rb::dataflow {
namespace {

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Dataset, FromVectorPreservesElements) {
  Context ctx{4};
  const auto ds = Dataset<int>::from_vector(ctx, iota_vec(100));
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.partition_count(), 4u);
  auto all = ds.collect();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, iota_vec(100));
}

TEST(Dataset, MapTransformsEveryElement) {
  Context ctx{3};
  const auto ds = Dataset<int>::from_vector(ctx, iota_vec(50));
  const auto doubled = ds.map([](const int& x) { return x * 2; });
  auto all = doubled.collect();
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 2);
  }
}

TEST(Dataset, FilterKeepsMatching) {
  Context ctx{4};
  const auto ds = Dataset<int>::from_vector(ctx, iota_vec(100));
  const auto evens = ds.filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.size(), 50u);
  for (const int x : evens.collect()) EXPECT_EQ(x % 2, 0);
}

TEST(Dataset, FoldSums) {
  Context ctx{4};
  const auto ds = Dataset<int>::from_vector(ctx, iota_vec(101));
  const auto plus = [](int a, int b) { return a + b; };
  EXPECT_EQ(ds.fold(0, plus, plus), 5050);
}

TEST(ReduceByKey, WordCountSemantics) {
  Context ctx{4};
  std::vector<std::pair<std::string, int>> words = {
      {"big", 1}, {"data", 1}, {"big", 1}, {"eu", 1},
      {"data", 1}, {"big", 1}};
  auto ds = Dataset<std::pair<std::string, int>>::from_vector(ctx, words);
  const auto counts =
      reduce_by_key(ds, [](int a, int b) { return a + b; });
  std::map<std::string, int> m;
  for (const auto& [k, v] : counts.collect()) m[k] = v;
  EXPECT_EQ(m.at("big"), 3);
  EXPECT_EQ(m.at("data"), 2);
  EXPECT_EQ(m.at("eu"), 1);
  EXPECT_EQ(m.size(), 3u);
}

TEST(ReduceByKey, MatchesSequentialReference) {
  Context ctx{8};
  sim::Rng rng{5};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = rng.uniform_index(100);
    const std::uint64_t v = rng.uniform_index(1000);
    pairs.emplace_back(k, v);
    reference[k] += v;
  }
  auto ds = Dataset<std::pair<std::uint64_t, std::uint64_t>>::from_vector(
      ctx, pairs);
  const auto reduced = reduce_by_key(
      ds, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  std::map<std::uint64_t, std::uint64_t> got;
  for (const auto& [k, v] : reduced.collect()) got[k] = v;
  EXPECT_EQ(got, reference);
}

TEST(Join, InnerJoinMatchesReference) {
  Context ctx{4};
  std::vector<std::pair<int, std::string>> left = {
      {1, "a"}, {2, "b"}, {2, "bb"}, {3, "c"}};
  std::vector<std::pair<int, double>> right = {
      {2, 2.0}, {3, 3.0}, {3, 3.5}, {4, 4.0}};
  auto lds = Dataset<std::pair<int, std::string>>::from_vector(ctx, left);
  auto rds = Dataset<std::pair<int, double>>::from_vector(ctx, right);
  const auto joined = join(lds, rds).collect();
  // key 2: (b,2.0), (bb,2.0); key 3: (c,3.0), (c,3.5) => 4 rows.
  EXPECT_EQ(joined.size(), 4u);
  for (const auto& [k, ab] : joined) {
    EXPECT_TRUE(k == 2 || k == 3);
    if (k == 2) { EXPECT_DOUBLE_EQ(ab.second, 2.0); }
  }
}

TEST(Join, DisjointKeysProduceNothing) {
  Context ctx{2};
  auto lds = Dataset<std::pair<int, int>>::from_vector(ctx, {{1, 1}});
  auto rds = Dataset<std::pair<int, int>>::from_vector(ctx, {{2, 2}});
  EXPECT_EQ(join(lds, rds).size(), 0u);
}

TEST(Shuffle, MetricsAccumulate) {
  Context ctx{4};
  std::vector<std::pair<int, int>> pairs(1000, {1, 1});
  auto ds = Dataset<std::pair<int, int>>::from_vector(ctx, pairs);
  reduce_by_key(ds, [](int a, int b) { return a + b; });
  // Map-side combine collapses everything to one pair per partition.
  EXPECT_GT(ctx.shuffled_rows(), 0u);
  EXPECT_LE(ctx.shuffled_rows(), 4u);
}

TEST(Dataset, EmptyDatasetOperationsAreSafe) {
  Context ctx{4};
  auto ds = Dataset<int>::from_vector(ctx, {});
  EXPECT_EQ(ds.size(), 0u);
  EXPECT_EQ(ds.map([](const int& x) { return x; }).size(), 0u);
  EXPECT_EQ(ds.filter([](const int&) { return true; }).size(), 0u);
  const auto plus = [](int a, int b) { return a + b; };
  EXPECT_EQ(ds.fold(0, plus, plus), 0);
}

/// Partition-count sweep: results must not depend on parallelism.
class PartitionSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionSweepTest, ReduceInvariantToPartitioning) {
  Context ctx{GetParam()};
  sim::Rng rng{23};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  for (int i = 0; i < 2000; ++i) {
    pairs.emplace_back(rng.uniform_index(50), 1);
  }
  auto ds = Dataset<std::pair<std::uint64_t, std::uint64_t>>::from_vector(
      ctx, pairs);
  const auto reduced = reduce_by_key(
      ds, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  std::uint64_t total = 0;
  for (const auto& [k, v] : reduced.collect()) total += v;
  EXPECT_EQ(total, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionSweepTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace rb::dataflow
