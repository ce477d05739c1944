// Recovery behaviour of the network layer under fault injection: route
// recomputation after link/switch death and repair, flow rerouting, and
// typed flow failure when no path survives.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/hash.hpp"
#include "sim/simulator.hpp"

namespace rb {
namespace {

std::vector<net::LinkId> route_of(const net::Router& router, net::NodeId src,
                                  net::NodeId dst, std::uint64_t flow_hash) {
  std::vector<net::LinkId> links;
  router.path(src, dst, flow_hash, links);
  return links;
}

/// Diamond: src - {sw1, sw2} - dst. Two disjoint equal-cost paths.
struct Diamond {
  net::Topology topo;
  net::NodeId src, sw1, sw2, dst;
  net::LinkId src_sw1, src_sw2, sw1_dst, sw2_dst;

  Diamond() {
    src = topo.add_node(net::NodeKind::kHost, "src");
    sw1 = topo.add_node(net::NodeKind::kEdgeSwitch, "sw1");
    sw2 = topo.add_node(net::NodeKind::kEdgeSwitch, "sw2");
    dst = topo.add_node(net::NodeKind::kHost, "dst");
    const auto rate = 10.0 * sim::kGbps;
    const auto lat = 500 * sim::kNanosecond;
    src_sw1 = topo.add_link(src, sw1, rate, lat);
    src_sw2 = topo.add_link(src, sw2, rate, lat);
    sw1_dst = topo.add_link(sw1, dst, rate, lat);
    sw2_dst = topo.add_link(sw2, dst, rate, lat);
  }
};

TEST(RouterRecovery, RecomputesAroundDeadLinkAndBack) {
  Diamond d;
  net::Router router{d.topo};
  EXPECT_EQ(router.distance(d.src, d.dst), 2);

  // Kill one side of the diamond: still reachable, all paths via sw2.
  d.topo.set_link_up(d.src_sw1, false);
  EXPECT_EQ(router.distance(d.src, d.dst), 2);
  for (std::uint64_t h = 0; h < 16; ++h) {
    const auto path = route_of(router, d.src, d.dst, h);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], d.src_sw2);
    EXPECT_EQ(path[1], d.sw2_dst);
  }

  // Kill the other side too: partitioned.
  d.topo.set_link_up(d.src_sw2, false);
  EXPECT_THROW(router.distance(d.src, d.dst), net::NoRouteError);
  EXPECT_FALSE(router.reachable(d.src, d.dst));

  // Repair: both paths usable again.
  d.topo.set_link_up(d.src_sw1, true);
  d.topo.set_link_up(d.src_sw2, true);
  EXPECT_EQ(router.distance(d.src, d.dst), 2);
  bool used_sw1 = false, used_sw2 = false;
  for (std::uint64_t h = 0; h < 64; ++h) {
    const auto path = route_of(router, d.src, d.dst, h);
    used_sw1 |= path[0] == d.src_sw1;
    used_sw2 |= path[0] == d.src_sw2;
  }
  EXPECT_TRUE(used_sw1);
  EXPECT_TRUE(used_sw2);
}

TEST(RouterRecovery, RecomputesAroundDeadSwitch) {
  Diamond d;
  net::Router router{d.topo};
  d.topo.set_node_up(d.sw1, false);
  const auto path = route_of(router, d.src, d.dst, 123);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], d.src_sw2);
  d.topo.set_node_up(d.sw2, false);
  EXPECT_THROW(route_of(router, d.src, d.dst, 123), net::NoRouteError);
  d.topo.set_node_up(d.sw1, true);
  EXPECT_EQ(route_of(router, d.src, d.dst, 123)[0], d.src_sw1);
}

TEST(FlowRecovery, MidFlightRerouteOntoSurvivingPath) {
  Diamond d;
  sim::Simulator sim;
  net::Router router{d.topo};
  net::FlowSimulator fabric{sim, d.topo, router};

  net::FlowRecord last{};
  bool finished = false;
  // 10 Gb/s link, 125 MB flow => ~0.1 s unperturbed.
  fabric.start_flow(d.src, d.dst, 125 * 1000 * 1000,
                    [&](const net::FlowRecord& r) {
                      last = r;
                      finished = true;
                    });
  const auto taken = route_of(router, d.src, d.dst, sim::mix64(1));
  // Kill the first link of the path it chose, mid-transfer; repair later.
  faults::FaultPlan plan;
  plan.add_link_outage(taken[0], sim::from_seconds(0.05),
                       sim::from_seconds(1.0));
  faults::FaultInjector injector{sim, d.topo, std::move(plan)};
  injector.attach(fabric);
  injector.arm();

  sim.run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(last.outcome, net::FlowOutcome::kCompleted);
  EXPECT_EQ(fabric.rerouted_flows(), 1u);
  EXPECT_EQ(fabric.failed_flows(), 0u);
  EXPECT_EQ(fabric.completed_flows(), 1u);
  // The reroute cost nothing in this symmetric diamond: same rate after the
  // switchover, so the finish time stays ~0.1 s.
  EXPECT_NEAR(sim::to_seconds(last.finish - last.start), 0.1, 0.01);
}

TEST(FlowRecovery, DisconnectionFailsFlowWithTypedOutcome) {
  Diamond d;
  sim::Simulator sim;
  net::Router router{d.topo};
  net::FlowSimulator fabric{sim, d.topo, router};

  net::FlowRecord last{};
  bool called = false;
  fabric.start_flow(d.src, d.dst, 125 * 1000 * 1000,
                    [&](const net::FlowRecord& r) {
                      last = r;
                      called = true;
                    });
  faults::FaultPlan plan;
  // Take down both switches permanently at t = 30 ms.
  plan.add_node_outage(d.sw1, sim::from_seconds(0.03), -1);
  plan.add_node_outage(d.sw2, sim::from_seconds(0.03), -1);
  faults::FaultInjector injector{sim, d.topo, std::move(plan)};
  injector.attach(fabric);
  injector.arm();

  sim.run();
  ASSERT_TRUE(called);
  EXPECT_EQ(last.outcome, net::FlowOutcome::kFailed);
  EXPECT_NEAR(sim::to_seconds(last.finish), 0.03, 1e-6);
  EXPECT_GT(last.bytes_delivered, 0u);
  EXPECT_LT(last.bytes_delivered, last.size);
  EXPECT_EQ(fabric.failed_flows(), 1u);
  EXPECT_EQ(fabric.completed_flows(), 0u);
  EXPECT_EQ(fabric.active_flows(), 0u);  // never hangs
  EXPECT_EQ(injector.component_failures(), 2u);
}

TEST(FlowRecovery, FatTreeShuffleSurvivesSingleLinkLoss) {
  // A k=4 fat tree has path diversity everywhere above the host links:
  // losing one fabric link must reroute flows, fail none, and still finish.
  auto topo = net::make_fat_tree(4);
  sim::Simulator sim;
  net::Router router{topo};
  net::FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
  std::uint64_t done = 0;
  for (const auto src : hosts) {
    for (const auto dst : hosts) {
      if (src == dst) continue;
      fabric.start_flow(src, dst, 10 * sim::kMiB,
                        [&](const net::FlowRecord&) { ++done; });
    }
  }
  // Find a switch-to-switch link and schedule an outage.
  net::LinkId fabric_link = 0;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(l);
    if (topo.node(link.a).kind != net::NodeKind::kHost &&
        topo.node(link.b).kind != net::NodeKind::kHost) {
      fabric_link = l;
      break;
    }
  }
  faults::FaultPlan plan;
  plan.add_link_outage(fabric_link, sim::from_seconds(0.01),
                       sim::from_seconds(0.5));
  faults::FaultInjector injector{sim, topo, std::move(plan)};
  injector.attach(fabric);
  injector.arm();
  sim.run();

  const auto total = hosts.size() * (hosts.size() - 1);
  EXPECT_EQ(done, total);
  EXPECT_EQ(fabric.completed_flows(), total);
  EXPECT_EQ(fabric.failed_flows(), 0u);
  EXPECT_EQ(fabric.completed_flows() + fabric.failed_flows(),
            fabric.started_flows());
}

TEST(FlowRecovery, EmptyPlanLeavesResultsByteIdentical) {
  // The zero-cost guarantee: arming an empty plan must not change a single
  // completion time.
  const auto topo = net::make_leaf_spine(2, 3, 3);
  const auto baseline = net::simulate_shuffle(topo, 4 * sim::kMiB);

  auto topo2 = net::make_leaf_spine(2, 3, 3);
  sim::Simulator sim;
  net::Router router{topo2};
  net::FlowSimulator fabric{sim, topo2, router};
  faults::FaultInjector injector{sim, topo2, faults::FaultPlan{}};
  injector.attach(fabric);
  injector.arm();
  const auto hosts = topo2.nodes_of_kind(net::NodeKind::kHost);
  sim::SimTime last_finish = 0;
  for (const auto src : hosts) {
    for (const auto dst : hosts) {
      if (src == dst) continue;
      fabric.start_flow(src, dst, 4 * sim::kMiB,
                        [&](const net::FlowRecord& r) {
                          last_finish = std::max(last_finish, r.finish);
                        });
    }
  }
  sim.run();
  EXPECT_EQ(last_finish, baseline);
  EXPECT_EQ(injector.applied_events(), 0u);
}

TEST(FaultInjector, RejectsMachineEvents) {
  auto topo = net::make_star(2);
  sim::Simulator sim;
  faults::FaultPlan plan;
  plan.add_machine_outage(0, sim::kSecond, sim::kSecond);
  faults::FaultInjector injector{sim, topo, std::move(plan)};
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

}  // namespace
}  // namespace rb
