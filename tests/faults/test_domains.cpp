// Correlated failure domains: structural pod derivation and the pod-wide
// outage plan builder.

#include <gtest/gtest.h>

#include <algorithm>

#include "faults/domains.hpp"
#include "faults/injector.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace rb {
namespace {

TEST(FailureDomains, FatTreePodsPartitionHostsAndSwitches) {
  const auto topo = net::make_fat_tree(4);
  const auto pods = faults::pod_domains(topo);
  ASSERT_EQ(pods.size(), 4u);
  std::vector<net::NodeId> all_hosts;
  for (const auto& pod : pods) {
    EXPECT_EQ(pod.hosts.size(), 4u);     // (k/2)^2 hosts per pod
    EXPECT_EQ(pod.switches.size(), 4u);  // k/2 edge + k/2 agg
    for (const net::NodeId sw : pod.switches) {
      EXPECT_NE(topo.node(sw).kind, net::NodeKind::kCoreSwitch);
    }
    all_hosts.insert(all_hosts.end(), pod.hosts.begin(), pod.hosts.end());
  }
  std::sort(all_hosts.begin(), all_hosts.end());
  EXPECT_EQ(all_hosts.size(), 16u);
  EXPECT_EQ(std::unique(all_hosts.begin(), all_hosts.end()), all_hosts.end());
}

TEST(FailureDomains, LeafSpineIsOnePod) {
  const auto topo = net::make_leaf_spine(3, 4, 3);  // 12 hosts
  const auto pods = faults::pod_domains(topo);
  ASSERT_EQ(pods.size(), 1u);
  EXPECT_EQ(pods[0].hosts.size(), 12u);
}

TEST(FailureDomains, DomainOutagePlanTakesWholeDomainDownAndBack) {
  const auto topo = net::make_fat_tree(4);
  const auto pods = faults::pod_domains(topo);
  faults::FaultPlan plan;
  faults::add_domain_outage(plan, pods[1], 2 * sim::kSecond, sim::kSecond);
  EXPECT_NO_THROW(plan.validate(topo));
  EXPECT_EQ(plan.size(), 2 * (pods[1].hosts.size() + pods[1].switches.size()));

  // Replayed against a live topology, the whole pod actually goes dark.
  auto live = net::make_fat_tree(4);
  sim::Simulator sim;
  faults::FaultInjector injector{sim, live, plan};
  injector.arm();
  sim.run_until(2 * sim::kSecond + 1);
  for (const net::NodeId id : pods[1].hosts) EXPECT_FALSE(live.node_up(id));
  for (const net::NodeId id : pods[1].switches) EXPECT_FALSE(live.node_up(id));
  for (const net::NodeId id : pods[0].hosts) EXPECT_TRUE(live.node_up(id));
  sim.run();
  for (const net::NodeId id : pods[1].hosts) EXPECT_TRUE(live.node_up(id));
}

}  // namespace
}  // namespace rb
