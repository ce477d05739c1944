#include "roadmap/funding.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rb::roadmap {
namespace {

TEST(Funding, ProgrammeCoversAllTwelveRecommendations) {
  std::set<int> recs;
  for (const auto& option : standard_programme()) {
    recs.insert(option.recommendation);
    EXPECT_GT(option.cost, 0.0) << option.recommendation;
    EXPECT_GE(option.p_boost, 0.0);
    EXPECT_GE(option.q_boost, 0.0);
  }
  EXPECT_EQ(recs.size(), 12u);
}

TEST(Funding, ProgrammeTechnologiesExistInPortfolio) {
  for (const auto& option : standard_programme()) {
    EXPECT_NO_THROW(adoption_gain(option, 2026)) << option.technology;
  }
}

TEST(Funding, GainIsNonNegativeAndBoundedByCeiling) {
  for (const auto& option : standard_programme()) {
    const double gain = adoption_gain(option, 2026);
    EXPECT_GE(gain, 0.0) << option.recommendation;
    EXPECT_LE(gain, 1.0);
  }
}

TEST(Funding, UnknownTechnologyThrows) {
  FundingOption bogus{99, "warp-drive", 1e6, 0.1, 0.1};
  EXPECT_THROW(adoption_gain(bogus, 2026), std::invalid_argument);
}

TEST(Funding, NegativeBudgetThrows) {
  EXPECT_THROW(allocate_funding(-1.0), std::invalid_argument);
}

TEST(Funding, ZeroBudgetFundsNothing) {
  const auto plan = allocate_funding(0.0);
  EXPECT_TRUE(plan.funded.empty());
  EXPECT_DOUBLE_EQ(plan.spent, 0.0);
  EXPECT_DOUBLE_EQ(plan.total_gain, 0.0);
}

TEST(Funding, StaysWithinBudget) {
  for (const double budget : {5e6, 20e6, 60e6, 200e6}) {
    const auto plan = allocate_funding(budget);
    EXPECT_LE(plan.spent, budget);
  }
}

TEST(Funding, GainMonotoneInBudget) {
  double prev = -1.0;
  for (const double budget : {0.0, 1e7, 3e7, 6e7, 1e8, 2e8, 1e9}) {
    const auto plan = allocate_funding(budget);
    EXPECT_GE(plan.total_gain, prev) << budget;
    prev = plan.total_gain;
  }
}

TEST(Funding, UnlimitedBudgetFundsEveryUsefulOption) {
  const auto plan = allocate_funding(1e12);
  std::size_t useful = 0;
  for (const auto& option : standard_programme()) {
    useful += adoption_gain(option, 2026) > 0.0;
  }
  EXPECT_EQ(plan.funded.size(), useful);
}

TEST(Funding, GreedyPrefersHighMarginalReturn) {
  // With budget for exactly one programme, the funded option must have the
  // best gain/cost ratio among those that fit.
  const double budget = 10e6;
  const auto plan = allocate_funding(budget);
  ASSERT_FALSE(plan.funded.empty());
  const auto& picked = plan.funded.front();
  const double picked_ratio =
      adoption_gain(picked, 2026) / picked.cost;
  for (const auto& option : standard_programme()) {
    if (option.cost > budget) continue;
    const double ratio = adoption_gain(option, 2026) / option.cost;
    EXPECT_LE(ratio, picked_ratio * (1.0 + 1e-12)) << option.recommendation;
  }
}

TEST(Funding, Deterministic) {
  const auto a = allocate_funding(50e6);
  const auto b = allocate_funding(50e6);
  ASSERT_EQ(a.funded.size(), b.funded.size());
  for (std::size_t i = 0; i < a.funded.size(); ++i) {
    EXPECT_EQ(a.funded[i].recommendation, b.funded[i].recommendation);
  }
}

}  // namespace
}  // namespace rb::roadmap
