// FaultPlan: deterministic schedules, seeded random generation, event
// ordering and validation.

#include <gtest/gtest.h>

#include "faults/plan.hpp"
#include "net/topology.hpp"

namespace rb {
namespace {

TEST(FaultPlan, EventsAreSortedByTime) {
  faults::FaultPlan plan;
  plan.add({5 * sim::kSecond, faults::FaultTarget::kLink, 1, false});
  plan.add({1 * sim::kSecond, faults::FaultTarget::kNode, 2, false});
  plan.add({3 * sim::kSecond, faults::FaultTarget::kMachine, 0, false});
  const auto& events = plan.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LE(events[0].at, events[1].at);
  EXPECT_LE(events[1].at, events[2].at);
  EXPECT_EQ(events[0].target, faults::FaultTarget::kNode);
}

TEST(FaultPlan, OutageHelpersPairDownWithRepair) {
  faults::FaultPlan plan;
  plan.add_link_outage(7, 2 * sim::kSecond, 1 * sim::kSecond);
  plan.add_node_outage(3, 4 * sim::kSecond, -1);  // permanent
  const auto& events = plan.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].up);
  EXPECT_TRUE(events[1].up);
  EXPECT_EQ(events[1].at, 3 * sim::kSecond);
  EXPECT_FALSE(events[2].up);
  EXPECT_EQ(plan.failures(faults::FaultTarget::kLink), 1u);
  EXPECT_EQ(plan.failures(faults::FaultTarget::kNode), 1u);
}

TEST(FaultPlan, NegativeTimeRejected) {
  faults::FaultPlan plan;
  EXPECT_THROW(plan.add({-1, faults::FaultTarget::kLink, 0, false}),
               std::invalid_argument);
}

TEST(FaultPlan, RandomPlanIsDeterministicForFixedSeed) {
  const auto topo = net::make_fat_tree(4);
  faults::FailureRates rates;
  rates.link_mtbf_s = 30.0;
  rates.link_mttr_s = 2.0;
  rates.switch_mtbf_s = 60.0;
  rates.switch_mttr_s = 5.0;
  const auto a = faults::make_random_fault_plan(topo, rates,
                                                5 * 60 * sim::kSecond, 42);
  const auto b = faults::make_random_fault_plan(topo, rates,
                                                5 * 60 * sim::kSecond, 42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].up, b.events()[i].up);
  }
  // A different seed produces a different schedule.
  const auto c = faults::make_random_fault_plan(topo, rates,
                                                5 * 60 * sim::kSecond, 43);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at ||
              a.events()[i].id != c.events()[i].id;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomPlanPairsEveryFailureWithRepairInsideHorizon) {
  const auto topo = net::make_leaf_spine(2, 4, 4);
  faults::FailureRates rates;
  rates.link_mtbf_s = 10.0;
  rates.link_mttr_s = 1.0;
  const sim::SimTime horizon = 60 * sim::kSecond;
  const auto plan = faults::make_random_fault_plan(topo, rates, horizon, 7);
  ASSERT_GT(plan.size(), 0u);
  // Per component, transitions must alternate down/up and stay in-horizon.
  std::vector<int> state(topo.link_count(), 1);
  for (const auto& e : plan.events()) {
    ASSERT_EQ(e.target, faults::FaultTarget::kLink);
    EXPECT_GE(e.at, 0);
    EXPECT_LT(e.at, horizon);
    EXPECT_NE(state[e.id], e.up ? 1 : 0) << "double transition on link "
                                         << e.id;
    state[e.id] = e.up ? 1 : 0;
  }
  for (const int s : state) EXPECT_EQ(s, 1);  // everything repaired
}

TEST(FaultPlan, ZeroMtbfMeansNoFailures) {
  const auto topo = net::make_star(8);
  const auto plan = faults::make_random_fault_plan(
      topo, faults::FailureRates{}, 60 * sim::kSecond, 1);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, MachinePlanTargetsMachines) {
  const auto plan =
      faults::make_random_machine_plan(8, 20.0, 2.0, 120 * sim::kSecond, 9);
  ASSERT_GT(plan.size(), 0u);
  for (const auto& e : plan.events()) {
    EXPECT_EQ(e.target, faults::FaultTarget::kMachine);
    EXPECT_LT(e.id, 8u);
  }
}

TEST(FaultPlanValidate, AcceptsWellFormedPlans) {
  const auto topo = net::make_leaf_spine(2, 2, 2);
  faults::FaultPlan plan;
  plan.add_link_outage(0, 1 * sim::kSecond, 1 * sim::kSecond);
  plan.add_node_outage(0, 2 * sim::kSecond, 1 * sim::kSecond);
  plan.add_link_outage(0, 5 * sim::kSecond, -1);  // permanent, after repair
  plan.add_node_degrade(1, 1 * sim::kSecond, 2 * sim::kSecond, 4.0);
  EXPECT_NO_THROW(plan.validate(topo));
}

TEST(FaultPlanValidate, RejectsUnknownIds) {
  const auto topo = net::make_star(4);
  {
    faults::FaultPlan plan;
    plan.add_link_outage(topo.link_count(), sim::kSecond, sim::kSecond);
    EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);
  }
  {
    faults::FaultPlan plan;
    plan.add_node_outage(static_cast<net::NodeId>(topo.node_count()),
                         sim::kSecond, sim::kSecond);
    EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);
  }
  {
    faults::FaultPlan plan;
    plan.add_machine_outage(4, sim::kSecond, sim::kSecond);
    EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);  // m=0
    EXPECT_THROW(plan.validate(topo, 4), faults::PlanValidationError);
    EXPECT_NO_THROW(plan.validate(topo, 5));
  }
}

TEST(FaultPlanValidate, RejectsOverlappingOutages) {
  const auto topo = net::make_star(4);
  faults::FaultPlan plan;
  plan.add_link_outage(1, 1 * sim::kSecond, 10 * sim::kSecond);
  plan.add_link_outage(1, 2 * sim::kSecond, 1 * sim::kSecond);  // inside
  EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);
}

TEST(FaultPlanValidate, RejectsRepairWithoutOutage) {
  const auto topo = net::make_star(4);
  faults::FaultPlan plan;
  plan.add({1 * sim::kSecond, faults::FaultTarget::kNode, 2, true});
  EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);
}

TEST(FaultPlanValidate, OutageAndDegradeAreIndependentDimensions) {
  const auto topo = net::make_star(4);
  faults::FaultPlan plan;
  // A degraded node dying (and both recovering) is a legal gray+hard story.
  plan.add_node_degrade(1, 1 * sim::kSecond, 10 * sim::kSecond, 2.0);
  plan.add_node_outage(1, 2 * sim::kSecond, 1 * sim::kSecond);
  EXPECT_NO_THROW(plan.validate(topo));
  // But two overlapping degrades on one node are rejected.
  plan.add_node_degrade(1, 3 * sim::kSecond, 1 * sim::kSecond, 3.0);
  EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);
}

TEST(FaultPlanValidate, RejectsDegradeFactorBelowOne) {
  faults::FaultPlan plan;
  EXPECT_THROW(plan.add_node_degrade(0, sim::kSecond, sim::kSecond, 0.5),
               std::invalid_argument);
  // A hand-added raw event with a bad factor is caught by validate().
  faults::FaultEvent e;
  e.at = sim::kSecond;
  e.target = faults::FaultTarget::kNode;
  e.id = 0;
  e.mode = faults::FaultMode::kDegrade;
  e.factor = 0.5;
  plan.add(e);
  const auto topo = net::make_star(4);
  EXPECT_THROW(plan.validate(topo), faults::PlanValidationError);
}

TEST(FaultPlanValidate, DegradeHelperPairsOnsetWithRecovery) {
  faults::FaultPlan plan;
  plan.add_node_degrade(3, 2 * sim::kSecond, 1 * sim::kSecond, 8.0);
  const auto& events = plan.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].up);
  EXPECT_EQ(events[0].mode, faults::FaultMode::kDegrade);
  EXPECT_DOUBLE_EQ(events[0].factor, 8.0);
  EXPECT_TRUE(events[1].up);
  EXPECT_EQ(events[1].at, 3 * sim::kSecond);
}

TEST(FaultPlanValidate, GeneratedChurnPlansAlwaysValidate) {
  const auto topo = net::make_fat_tree(4);
  faults::FailureRates rates;
  rates.link_mtbf_s = 20.0;
  rates.link_mttr_s = 2.0;
  rates.switch_mtbf_s = 40.0;
  rates.switch_mttr_s = 4.0;
  rates.host_mtbf_s = 30.0;
  rates.host_mttr_s = 3.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto plan = faults::make_random_fault_plan(
        topo, rates, 5 * 60 * sim::kSecond, seed);
    EXPECT_NO_THROW(plan.validate(topo)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rb
