// Serving-plane integration: ledger invariant (including chaos runs),
// load shedding under overload, replication-driven availability, and
// bit-determinism for identical seeds.

#include "serve/frontdoor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "obs/metrics.hpp"
#include "serve/ring.hpp"
#include "sim/simulator.hpp"

namespace rb::serve {
namespace {

FrontDoorParams small_params() {
  FrontDoorParams p;
  p.replication = 3;
  p.key_universe = 2'000;
  p.horizon = 200 * sim::kMillisecond;
  p.offered_qps = 5'000.0;
  p.seed = 0xBEEF;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = sim::kMillisecond;  // slow servers, small tests
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 16;
  p.replica.batch_max = 8;
  return p;
}

/// Stagger one outage per replica host across the arrival window.
faults::FaultPlan churn_plan(const net::Topology& topo,
                             sim::SimTime horizon) {
  faults::FaultPlan plan;
  const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
  for (std::size_t i = 1; i < hosts.size(); ++i) {  // hosts[0] = gateway
    const auto at = static_cast<sim::SimTime>(
        horizon / 10 + (horizon * static_cast<sim::SimTime>(i - 1)) /
                           static_cast<sim::SimTime>(hosts.size()));
    plan.add_node_outage(hosts[i], at, horizon / 8);
  }
  return plan;
}

struct RunResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  double availability = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool ledger_ok = false;
};

RunResult run(const FrontDoorParams& params, bool chaos) {
  net::Topology topo = net::make_leaf_spine(2, 2, 2);  // 4 hosts
  sim::Simulator sim;
  net::Router router{topo};
  FrontDoor door{sim, topo, router, params};
  door.preload();

  std::optional<faults::FaultInjector> injector;
  if (chaos) {
    injector.emplace(sim, topo, churn_plan(topo, params.horizon));
    injector->on_event(
        [&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
    injector->arm();
  }
  door.start();
  sim.run();

  const SloAccountant& slo = door.slo();
  RunResult out;
  out.issued = slo.issued();
  out.completed = slo.completed();
  out.rejected = slo.rejected();
  out.failed = slo.failed();
  out.retries = slo.retries();
  out.availability = slo.availability();
  out.ledger_ok = slo.ledger_ok();
  if (!slo.latency_seconds().empty()) {
    out.p50_ms = slo.latency_seconds().p50() * 1e3;
    out.p99_ms = slo.latency_seconds().p99() * 1e3;
  }
  return out;
}

TEST(FrontDoor, LedgerHoldsAcrossConfigurations) {
  for (const std::size_t replication : {std::size_t{1}, std::size_t{3}}) {
    for (const double load_multiplier : {0.4, 2.5}) {
      for (const bool chaos : {false, true}) {
        auto params = small_params();
        params.replication = replication;
        params.offered_qps =
            load_multiplier * estimated_capacity_qps(params, 3);
        const auto r = run(params, chaos);
        ASSERT_GT(r.issued, 0u);
        EXPECT_TRUE(r.ledger_ok)
            << "R=" << replication << " load=" << load_multiplier
            << " chaos=" << chaos << ": " << r.completed << "+" << r.rejected
            << "+" << r.failed << " != " << r.issued;
      }
    }
  }
}

TEST(FrontDoor, HealthyClusterAtModerateLoadCompletesEverything) {
  auto params = small_params();
  params.offered_qps = 0.4 * estimated_capacity_qps(params, 3);
  const auto r = run(params, /*chaos=*/false);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.p50_ms, 0.0);
}

TEST(FrontDoor, OverloadShedsInsteadOfQueueingUnboundedly) {
  auto params = small_params();
  const double capacity = estimated_capacity_qps(params, 3);
  params.offered_qps = 3.0 * capacity;
  const auto r = run(params, /*chaos=*/false);
  EXPECT_TRUE(r.ledger_ok);
  EXPECT_GT(r.rejected, 0u) << "admission control never triggered";
  // Goodput saturates near capacity instead of collapsing...
  const double goodput =
      static_cast<double>(r.completed) / sim::to_seconds(params.horizon);
  EXPECT_GT(goodput, 0.5 * capacity);
  // ...and bounded queues bound the completed requests' tail latency: at
  // most ~(queue_limit / batch_max + 2) batch times plus fabric delays.
  const double batch_ms =
      sim::to_seconds(ReplicaServer::amortized_service_time(params.replica)) *
      1e3 * static_cast<double>(params.replica.batch_max);
  const double bound_ms =
      batch_ms * (static_cast<double>(params.replica.queue_limit) /
                      static_cast<double>(params.replica.batch_max) +
                  3.0);
  EXPECT_LT(r.p99_ms, bound_ms);
}

TEST(FrontDoor, ReplicationRaisesAvailabilityUnderChurn) {
  auto params = small_params();
  params.offered_qps = 0.5 * estimated_capacity_qps(params, 3);

  auto r1_params = params;
  r1_params.replication = 1;
  const auto r1 = run(r1_params, /*chaos=*/true);

  auto r3_params = params;
  r3_params.replication = 3;
  const auto r3 = run(r3_params, /*chaos=*/true);

  EXPECT_TRUE(r1.ledger_ok);
  EXPECT_TRUE(r3.ledger_ok);
  EXPECT_GT(r1.failed + r1.retries, 0u) << "churn plan never bit";
  EXPECT_GT(r3.availability, r1.availability);
  EXPECT_GT(r3.availability, 0.9);
}

TEST(FrontDoor, IdenticalSeedsProduceIdenticalResults) {
  auto params = small_params();
  params.offered_qps = 1.5 * estimated_capacity_qps(params, 3);
  const auto a = run(params, /*chaos=*/true);
  const auto b = run(params, /*chaos=*/true);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.p50_ms, b.p50_ms);  // bit-identical, not approximately
  EXPECT_EQ(a.p99_ms, b.p99_ms);
}

TEST(FrontDoor, ExportsSloCountersThroughObs) {
  auto& registry = obs::Registry::global();
  registry.clear();
  obs::set_enabled(true);
  auto params = small_params();
  params.horizon = 50 * sim::kMillisecond;
  const auto r = run(params, /*chaos=*/false);
  obs::set_enabled(false);

  EXPECT_EQ(registry.counter("serve.requests_issued").value(), r.issued);
  EXPECT_EQ(registry.counter("serve.requests_completed").value(),
            r.completed);
  EXPECT_EQ(registry.counter("serve.requests_rejected").value(), r.rejected);
  EXPECT_EQ(registry.counter("serve.requests_failed").value(), r.failed);
  registry.clear();
}

/// What snprintf("k%08zu") writes for `index`.
std::string printf_key_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "k%08zu", index);
  return buf;
}

TEST(FrontDoor, KeyNamesMatchPrintf) {
  std::string name = "a longer name whose buffer is reused";
  for (const std::size_t index :
       {std::size_t{0}, std::size_t{7}, std::size_t{99'999'999},
        std::size_t{100'000'000}, SIZE_MAX}) {
    write_key_name(index, name);
    EXPECT_EQ(name, printf_key_name(index)) << index;
  }
}

/// preload() writes each key, under its printf name, to exactly the owners
/// a ring of the same replica ids gives it.
TEST(FrontDoor, PreloadPlacesKeysOnRingOwners) {
  FrontDoorParams params = small_params();  // 2,000 keys, R = 3
  params.replicas = 8;  // more replicas than owners, so placement matters
  net::Topology topo = net::make_fat_tree(4);
  sim::Simulator sim;
  net::Router router{topo};
  FrontDoor door{sim, topo, router, params};
  door.preload();
  ASSERT_EQ(door.replica_count(), 8u);

  HashRing ring;
  for (std::size_t i = 0; i < door.replica_count(); ++i) {
    ring.add_node(static_cast<ReplicaId>(i));
  }
  Placement owners;
  for (std::size_t k = 0; k < params.key_universe; ++k) {
    const std::string name = printf_key_name(k);
    ring.replicas(name, params.replication, owners);
    ASSERT_EQ(owners.replicas.size(), params.replication);
    for (std::size_t i = 0; i < door.replica_count(); ++i) {
      const bool owner =
          std::find(owners.replicas.begin(), owners.replicas.end(),
                    static_cast<ReplicaId>(i)) != owners.replicas.end();
      ASSERT_EQ(door.replica(i).store().find(name).has_value(), owner)
          << name << " on replica " << i;
    }
  }
}

TEST(FrontDoor, RejectsDegenerateParameters) {
  net::Topology topo = net::make_leaf_spine(2, 2, 2);
  sim::Simulator sim;
  net::Router router{topo};
  auto params = small_params();
  params.replication = 0;
  EXPECT_THROW((FrontDoor{sim, topo, router, params}), std::invalid_argument);
  params = small_params();
  params.replicas = 10;  // more than the topology's hosts
  EXPECT_THROW((FrontDoor{sim, topo, router, params}), std::invalid_argument);
}

}  // namespace
}  // namespace rb::serve
