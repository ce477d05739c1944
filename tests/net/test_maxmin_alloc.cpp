// Allocator fast-path coverage: golden determinism of the arena rewrite,
// differential testing of the progressive-filling solver against a
// map-based reference implementation on fat-tree(4) and fat-tree(8), under
// uniform and rack-local traffic and under link flaps with reroutes and
// failures (all under every reachable SIMD level), lookups of unknown flow
// ids, reroute freshness, and event-coalescing accounting.

#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/simd/simd.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"

namespace rb::net {
namespace {

// ---------------------------------------------------------------------------
// Golden determinism: these hashes were recorded from the pre-arena,
// map-based solver (PR-5 seed state). Full-mode flow completion streams must
// stay byte-identical across the rewrite — same ids, same integer SimTime
// finishes, same outcomes, same delivered bytes.
// ---------------------------------------------------------------------------

struct GoldenHash {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  void record(const FlowRecord& r) {
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.start));
    mix(static_cast<std::uint64_t>(r.finish));
    mix(r.bytes_delivered);
    mix(static_cast<std::uint64_t>(r.outcome));
  }
};

/// Runs `body` under every SIMD level this CPU and build can reach.
template <typename Body>
void on_every_isa(Body body) {
  const accel::simd::IsaGuard guard;
  for (const accel::simd::Isa isa : accel::simd::reachable_isas()) {
    ASSERT_TRUE(accel::simd::set_isa(isa));
    body();
  }
}

/// Expects `golden` from `scenario` on every ISA: the solver's kernel scans
/// may not move a single rate bit on any of them.
template <typename Scenario>
void expect_golden_on_every_isa(std::uint64_t golden, Scenario scenario) {
  on_every_isa([&] {
    EXPECT_EQ(scenario(), golden)
        << accel::simd::to_string(accel::simd::active_isa());
  });
}

std::uint64_t staggered_arrivals_hash() {
  const auto topo = make_leaf_spine(2, 4, 4);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  sim::Rng rng{7};
  GoldenHash gh;
  struct Req {
    NodeId src, dst;
    sim::Bytes size;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < 120; ++i) {
    reqs.push_back({hosts[rng.uniform_index(hosts.size())],
                    hosts[rng.uniform_index(hosts.size())],
                    1'000'000 + rng.uniform_index(8'000'000)});
  }
  for (int i = 0; i < 120; ++i) {
    const Req req = reqs[static_cast<std::size_t>(i)];
    sim.schedule_at(i * 50 * sim::kMicrosecond, [&fabric, &gh, req] {
      fabric.start_flow(req.src, req.dst, req.size,
                        [&gh](const FlowRecord& r) { gh.record(r); });
    });
  }
  sim.run();
  return gh.h;
}

TEST(MaxMinGolden, StaggeredArrivalsByteIdentical) {
  expect_golden_on_every_isa(0x5449aca23371ea63ULL, staggered_arrivals_hash);
}

std::uint64_t bursty_faulty_cancelly_hash() {
  auto topo = make_fat_tree(4);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  sim::Rng rng{11};
  GoldenHash gh;
  struct Req {
    NodeId src, dst;
    sim::Bytes size;
  };
  std::vector<std::vector<Req>> bursts;
  std::vector<FlowId> ids;
  for (int b = 0; b < 40; ++b) {
    bursts.emplace_back();
    for (int j = 0; j < 5; ++j) {
      bursts.back().push_back({hosts[rng.uniform_index(hosts.size())],
                               hosts[rng.uniform_index(hosts.size())],
                               512'000 + rng.uniform_index(4'000'000)});
    }
  }
  std::uint64_t unroutable = 0;
  for (int b = 0; b < 40; ++b) {
    sim.schedule_at(b * 100 * sim::kMicrosecond,
                    [&fabric, &gh, &bursts, &ids, &unroutable, b] {
                      for (const Req& req : bursts[static_cast<std::size_t>(b)]) {
                        try {
                          ids.push_back(fabric.start_flow(
                              req.src, req.dst, req.size,
                              [&gh](const FlowRecord& r) { gh.record(r); }));
                        } catch (const NoRouteError&) {
                          ++unroutable;
                        }
                      }
                    });
  }
  const LinkId l1 = static_cast<LinkId>(topo.link_count() - 1);
  const LinkId l2 = static_cast<LinkId>(topo.link_count() / 2);
  sim.schedule_at(2 * sim::kMillisecond, [&] {
    topo.set_link_up(l1, false);
    fabric.handle_topology_change();
  });
  sim.schedule_at(4 * sim::kMillisecond, [&] {
    topo.set_link_up(l2, false);
    fabric.handle_topology_change();
  });
  sim.schedule_at(6 * sim::kMillisecond, [&] {
    topo.set_link_up(l1, true);
    topo.set_link_up(l2, true);
    fabric.handle_topology_change();
  });
  sim.schedule_at(3 * sim::kMillisecond, [&] {
    for (std::size_t i = 0; i < ids.size(); i += 7) fabric.cancel_flow(ids[i]);
  });
  sim.run();
  GoldenHash tail;
  tail.mix(gh.h);
  tail.mix(fabric.completed_flows());
  tail.mix(fabric.failed_flows());
  tail.mix(fabric.cancelled_flows());
  tail.mix(fabric.rerouted_flows());
  tail.mix(unroutable);
  return tail.h;
}

TEST(MaxMinGolden, BurstyFaultyCancellyByteIdentical) {
  expect_golden_on_every_isa(0x2f1878601c5ee867ULL,
                             bursty_faulty_cancelly_hash);
}

/// The cases above stay within 96 directed links. This one runs at the
/// fabric_churn scale: a k=8 fat tree (up to 768 directed links per solve,
/// so the solver's scans span many vector blocks), 600 staggered arrivals
/// and one switch-to-switch link flap while the fabric is loaded. Its hash
/// was recorded with the solver that recomputed every share in every round.
std::uint64_t fat_tree8_flap_hash() {
  auto topo = make_fat_tree(8);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  std::vector<LinkId> switch_links;
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    const Link& link = topo.link(id);
    if (topo.node(link.a).kind != NodeKind::kHost &&
        topo.node(link.b).kind != NodeKind::kHost) {
      switch_links.push_back(id);
    }
  }
  sim::Rng rng{29};
  GoldenHash gh;
  for (int i = 0; i < 600; ++i) {
    const NodeId src = hosts[rng.uniform_index(hosts.size())];
    NodeId dst = hosts[rng.uniform_index(hosts.size())];
    while (dst == src) dst = hosts[rng.uniform_index(hosts.size())];
    const sim::Bytes size = 1'000'000 + rng.uniform_index(4'000'000);
    sim.schedule_at(i * 10 * sim::kMicrosecond,
                    [&fabric, &gh, src, dst, size] {
                      fabric.start_flow(
                          src, dst, size,
                          [&gh](const FlowRecord& r) { gh.record(r); });
                    });
  }
  const LinkId flap = switch_links[rng.uniform_index(switch_links.size())];
  sim.schedule_at(3 * sim::kMillisecond, [&] {
    topo.set_link_up(flap, false);
    fabric.handle_topology_change();
  });
  sim.schedule_at(5 * sim::kMillisecond, [&] {
    topo.set_link_up(flap, true);
    fabric.handle_topology_change();
  });
  sim.run();
  EXPECT_GT(fabric.rerouted_flows(), 0u) << "the flap moved no flow";
  GoldenHash tail;
  tail.mix(gh.h);
  tail.mix(fabric.completed_flows());
  tail.mix(fabric.failed_flows());
  tail.mix(fabric.rerouted_flows());
  return tail.h;
}

TEST(MaxMinGolden, FatTree8FlapByteIdentical) {
  expect_golden_on_every_isa(0x759ae5ea4332a2acULL, fat_tree8_flap_hash);
}

// ---------------------------------------------------------------------------
// Differential oracle: a deliberately naive map-based progressive-filling
// solver (the pre-rewrite algorithm, verbatim in structure) recomputed from
// scratch after every operation. The arena solver must agree on every rate.
// ---------------------------------------------------------------------------

/// Directed-link path of a flow exactly as FlowSimulator builds it.
std::vector<std::uint64_t> directed_path(const Topology& topo,
                                         const Router& router, FlowId id,
                                         NodeId src, NodeId dst) {
  std::vector<std::uint64_t> dpath;
  std::vector<LinkId> links;
  router.path(src, dst, sim::mix64(id), links);
  NodeId at = src;
  for (const LinkId link_id : links) {
    const Link& link = topo.link(link_id);
    const std::uint64_t dir = (link.a == at) ? 0 : 1;
    dpath.push_back((static_cast<std::uint64_t>(link_id) << 1) | dir);
    at = (link.a == at) ? link.b : link.a;
  }
  return dpath;
}

std::map<FlowId, double> reference_maxmin(
    const Topology& topo,
    const std::map<FlowId, std::vector<std::uint64_t>>& paths) {
  struct LinkState {
    double remaining_cap;
    int unfrozen = 0;
  };
  std::unordered_map<std::uint64_t, LinkState> links;
  for (const auto& [id, dpath] : paths) {
    for (const std::uint64_t key : dpath) {
      auto [it, inserted] = links.try_emplace(
          key, LinkState{topo.link(static_cast<LinkId>(key >> 1)).rate, 0});
      ++it->second.unfrozen;
    }
  }
  std::map<FlowId, double> rates;
  std::map<FlowId, bool> frozen;
  for (const auto& [id, dpath] : paths) frozen[id] = false;
  std::size_t remaining = paths.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    bool found = false;
    for (const auto& [key, state] : links) {
      if (state.unfrozen == 0) continue;
      const double share = state.remaining_cap / state.unfrozen;
      if (share < best_share) {
        best_share = share;
        found = true;
      }
    }
    if (!found) break;
    for (const auto& [id, dpath] : paths) {
      if (frozen[id]) continue;
      bool bottlenecked = false;
      for (const std::uint64_t key : dpath) {
        const auto& state = links.at(key);
        if (state.unfrozen > 0 &&
            state.remaining_cap / state.unfrozen <= best_share * (1 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rates[id] = best_share;
      frozen[id] = true;
      --remaining;
      for (const std::uint64_t key : dpath) {
        auto& state = links.at(key);
        state.remaining_cap = std::max(0.0, state.remaining_cap - best_share);
        --state.unfrozen;
      }
    }
  }
  return rates;
}

/// Where a churn script's flows go. Uniform pairs mostly cross the core, so
/// the flow/link graph is one component. Rack-local pairs stay under the
/// source's edge switch, so the graph splits into many small components.
enum class Traffic { kUniform, kRackLocal };

std::pair<NodeId, NodeId> pick_pair(const Topology& topo,
                                    const std::vector<NodeId>& hosts,
                                    Traffic traffic, sim::Rng& rng) {
  const NodeId src = hosts[rng.uniform_index(hosts.size())];
  if (traffic == Traffic::kRackLocal) {
    std::vector<NodeId> mates;
    for (const auto& [peer, link] :
         topo.adjacency(topo.adjacency(src).front().first)) {
      if (peer != src && topo.node(peer).kind == NodeKind::kHost) {
        mates.push_back(peer);
      }
    }
    return {src, mates[rng.uniform_index(mates.size())]};
  }
  NodeId dst = hosts[rng.uniform_index(hosts.size())];
  while (dst == src) dst = hosts[rng.uniform_index(hosts.size())];
  return {src, dst};
}

/// Every tracked flow's rate against the map solver's, after op `op`.
void expect_rates_match(
    const FlowSimulator& fabric, const Topology& topo,
    const std::map<FlowId, std::vector<std::uint64_t>>& paths,
    std::uint64_t seed, int op) {
  const auto expected = reference_maxmin(topo, paths);
  ASSERT_EQ(expected.size(), paths.size());
  for (const auto& [id, rate] : expected) {
    EXPECT_DOUBLE_EQ(fabric.current_rate(id), rate)
        << accel::simd::to_string(accel::simd::active_isa())
        << " seed=" << seed << " op=" << op << " flow=" << id;
  }
}

/// One seeded churn script of `ops` starts and cancels on `topo`, checked
/// against the map solver after every op.
void expect_matches_map_solver(const Topology& topo, Traffic traffic,
                               std::uint64_t seed, int ops) {
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  sim::Rng rng{seed};
  std::map<FlowId, std::vector<std::uint64_t>> paths;
  std::vector<FlowId> active;
  for (int op = 0; op < ops; ++op) {
    if (active.empty() || rng.uniform() < 0.65) {
      const auto [src, dst] = pick_pair(topo, hosts, traffic, rng);
      const FlowId id = fabric.start_flow(src, dst, 64 * sim::kMiB, {});
      paths.emplace(id, directed_path(topo, router, id, src, dst));
      active.push_back(id);
    } else {
      const std::size_t pick = rng.uniform_index(active.size());
      const FlowId id = active[pick];
      active[pick] = active.back();
      active.pop_back();
      ASSERT_TRUE(fabric.cancel_flow(id));
      paths.erase(id);
    }
    expect_rates_match(fabric, topo, paths, seed, op);
  }
}

TEST(MaxMinReference, ArenaSolverMatchesMapSolver) {
  const auto topo = make_fat_tree(4);
  on_every_isa([&] {
    for (const std::uint64_t seed : {101u, 202u, 303u}) {
      expect_matches_map_solver(topo, Traffic::kUniform, seed, 250);
    }
  });
}

/// Up to 182 flows across 561 of fat-tree(8)'s 768 directed links: the
/// solver's first_le_f64 walk spans many vector blocks, and most flows
/// couple through the core.
TEST(MaxMinReference, FatTree8UniformMatchesMapSolver) {
  const auto topo = make_fat_tree(8);
  on_every_isa(
      [&] { expect_matches_map_solver(topo, Traffic::kUniform, 404, 600); });
}

/// 32 racks of 4 hosts: many small independent components, whose
/// bottlenecks freeze side by side in the rounds they share.
TEST(MaxMinReference, FatTree8RackLocalMatchesMapSolver) {
  const auto topo = make_fat_tree(8);
  on_every_isa(
      [&] { expect_matches_map_solver(topo, Traffic::kRackLocal, 505, 600); });
}

/// True when `dpath` crosses a link that cannot carry traffic: the test of
/// FlowSimulator's path_is_live for a flow whose endpoints are up.
bool crosses_dead_link(const Topology& topo,
                       const std::vector<std::uint64_t>& dpath) {
  return std::any_of(dpath.begin(), dpath.end(), [&](std::uint64_t key) {
    return !topo.link_usable(static_cast<LinkId>(key >> 1));
  });
}

struct FlapCounts {
  std::uint64_t rerouted = 0;
  std::uint64_t failed = 0;
};

/// A churn script of starts, cancels and link faults on fat-tree(8): one
/// switch-to-switch link goes down or comes back, or an edge switch loses
/// every uplink (so its rack's cross-rack flows fail), each followed by
/// handle_topology_change(). The oracle mirrors the fabric's rule: a flow
/// moves only when its path crosses a dead link, onto the router's path for
/// its id, and fails when no path is left. Every rate is checked against the
/// map solver after every op. The solver's init takes each directed link's
/// unfrozen count from its membership list, so a stale entry left by a
/// reroute or a failure would show here as a wrong rate.
void expect_matches_map_solver_with_flaps(std::uint64_t seed, int ops,
                                          FlapCounts& counts) {
  auto topo = make_fat_tree(8);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  const auto edges = topo.nodes_of_kind(NodeKind::kEdgeSwitch);
  std::vector<LinkId> switch_links;
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    const Link& link = topo.link(id);
    if (topo.node(link.a).kind != NodeKind::kHost &&
        topo.node(link.b).kind != NodeKind::kHost) {
      switch_links.push_back(id);
    }
  }
  constexpr std::size_t kMaxDown = 8;
  sim::Rng rng{seed};
  std::map<FlowId, std::vector<std::uint64_t>> paths;
  std::map<FlowId, std::pair<NodeId, NodeId>> ends;
  std::vector<LinkId> down;
  const auto set_link = [&](LinkId id, bool up) {
    topo.set_link_up(id, up);
    if (up) {
      down.erase(std::find(down.begin(), down.end(), id));
    } else {
      down.push_back(id);
    }
  };
  for (int op = 0; op < ops; ++op) {
    const double r = rng.uniform();
    bool topology_changed = false;
    if (paths.empty() || r < 0.5) {
      const auto [src, dst] = pick_pair(topo, hosts, Traffic::kUniform, rng);
      try {
        const FlowId id = fabric.start_flow(src, dst, 64 * sim::kMiB, {});
        paths.emplace(id, directed_path(topo, router, id, src, dst));
        ends.emplace(id, std::make_pair(src, dst));
      } catch (const NoRouteError&) {
        // The rack is cut off: the fabric starts no flow.
      }
    } else if (r < 0.7) {
      auto it = paths.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.uniform_index(paths.size())));
      const FlowId id = it->first;
      EXPECT_TRUE(fabric.cancel_flow(id)) << "seed=" << seed << " op=" << op;
      paths.erase(it);
      ends.erase(id);
    } else if (r < 0.86 && down.size() < kMaxDown) {
      const LinkId id = switch_links[rng.uniform_index(switch_links.size())];
      if (topo.link_up(id)) set_link(id, false);
      topology_changed = true;
    } else if (r < 0.9 && down.size() < kMaxDown) {
      const NodeId edge = edges[rng.uniform_index(edges.size())];
      for (const auto& [peer, link] : topo.adjacency(edge)) {
        if (topo.node(peer).kind != NodeKind::kHost && topo.link_up(link)) {
          set_link(link, false);
        }
      }
      topology_changed = true;
    } else if (!down.empty()) {
      set_link(down[rng.uniform_index(down.size())], true);
      topology_changed = true;
    }
    if (topology_changed) {
      fabric.handle_topology_change();
      for (auto it = paths.begin(); it != paths.end();) {
        if (!crosses_dead_link(topo, it->second)) {
          ++it;
          continue;
        }
        const auto [src, dst] = ends.at(it->first);
        try {
          it->second = directed_path(topo, router, it->first, src, dst);
          ++counts.rerouted;
          ++it;
        } catch (const NoRouteError&) {
          ++counts.failed;
          ends.erase(it->first);
          it = paths.erase(it);
        }
      }
    }
    ASSERT_EQ(fabric.active_flows(), paths.size())
        << "seed=" << seed << " op=" << op;
    ASSERT_EQ(fabric.rerouted_flows(), counts.rerouted)
        << "seed=" << seed << " op=" << op;
    ASSERT_EQ(fabric.failed_flows(), counts.failed)
        << "seed=" << seed << " op=" << op;
    expect_rates_match(fabric, topo, paths, seed, op);
  }
}

/// Starts, cancels, flaps, reroutes and failures on fat-tree(8), under
/// every reachable ISA; the script must actually move and fail flows.
TEST(MaxMinReference, FatTree8FlapsAndReroutesMatchMapSolver) {
  on_every_isa([&] {
    FlapCounts counts;
    expect_matches_map_solver_with_flaps(606, 700, counts);
    EXPECT_GT(counts.rerouted, 0u);
    EXPECT_GT(counts.failed, 0u);
  });
}

// ---------------------------------------------------------------------------
// Unknown ids: cancel_flow and current_rate find a flow by scanning the
// arena, whose free slots carry id 0. No id that names no active flow may
// match a slot, free or not.
// ---------------------------------------------------------------------------

TEST(MaxMinLookup, UnknownIdsMatchNoSlot) {
  FabricParams params;
  params.host_gen = EthernetGen::k10G;
  params.fabric_gen = EthernetGen::k10G;
  auto topo = make_leaf_spine(2, 2, 2, params);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  ASSERT_EQ(hosts.size(), 4u);
  FlowId completed = 0;
  const FlowId small =
      fabric.start_flow(hosts[0], hosts[1], 1'000'000,
                        [&](const FlowRecord& r) { completed = r.id; });
  const FlowId cancelled = fabric.start_flow(hosts[1], hosts[0], 400'000'000);
  const FlowId doomed = fabric.start_flow(hosts[2], hosts[3], 400'000'000);
  const FlowId live = fabric.start_flow(hosts[0], hosts[2], 400'000'000);
  sim.run_until(10 * sim::kMillisecond);
  ASSERT_EQ(completed, small);
  ASSERT_TRUE(fabric.cancel_flow(cancelled));
  // Cutting hosts[3] off fails the one flow that ends there.
  const LinkId host3_link = topo.adjacency(hosts[3]).front().second;
  topo.set_link_up(host3_link, false);
  fabric.handle_topology_change();
  ASSERT_EQ(fabric.failed_flows(), 1u);
  ASSERT_EQ(fabric.active_flows(), 1u);  // three of four slots are free

  const FlowId never_started = live + 1000;
  for (const FlowId id : {FlowId{0}, small, cancelled, doomed, never_started}) {
    EXPECT_FALSE(fabric.cancel_flow(id)) << "id=" << id;
    EXPECT_THROW(fabric.current_rate(id), std::invalid_argument) << "id=" << id;
  }
  EXPECT_EQ(fabric.cancelled_flows(), 1u);
  EXPECT_EQ(fabric.active_flows(), 1u);
  EXPECT_DOUBLE_EQ(fabric.current_rate(live), 10e9);

  // The free slots serve new flows: three flows into hosts[2] split its
  // 10G downlink.
  topo.set_link_up(host3_link, true);
  fabric.handle_topology_change();
  const FlowId a = fabric.start_flow(hosts[1], hosts[2], 400'000'000);
  const FlowId b = fabric.start_flow(hosts[3], hosts[2], 400'000'000);
  for (const FlowId id : {live, a, b}) {
    EXPECT_NEAR(fabric.current_rate(id), 10e9 / 3.0, 1e3) << "id=" << id;
  }
  EXPECT_TRUE(fabric.cancel_flow(a));
  EXPECT_FALSE(fabric.cancel_flow(a));
  EXPECT_NEAR(fabric.current_rate(live), 5e9, 1e3);
  EXPECT_NEAR(fabric.current_rate(b), 5e9, 1e3);
  sim.run();
  EXPECT_EQ(fabric.completed_flows(), 3u);  // small, live and b
  EXPECT_EQ(fabric.active_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Reroute regression: current_rate immediately after a mid-flight reroute
// must reflect the post-reroute allocation (not a stale or zero rate).
// ---------------------------------------------------------------------------

TEST(MaxMinReroute, CurrentRateReflectsPostRerouteContention) {
  // 10G everywhere: two leaf0→leaf1 flows can ride distinct spines at
  // 10 Gb/s each; killing one spine squeezes both onto one 10G spine link.
  FabricParams params;
  params.host_gen = EthernetGen::k10G;
  params.fabric_gen = EthernetGen::k10G;
  auto topo = make_leaf_spine(2, 2, 2, params);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  const auto spines = topo.nodes_of_kind(NodeKind::kAggSwitch);
  ASSERT_EQ(spines.size(), 2u);
  // Two cross-leaf flows with distinct endpoints: depending on the ECMP
  // hash they ride distinct spines (10+10 Gb/s) or share one (5+5).
  const FlowId f0 = fabric.start_flow(hosts[0], hosts[2], 400'000'000);
  const FlowId f1 = fabric.start_flow(hosts[1], hosts[3], 400'000'000);
  sim.run_until(1 * sim::kMillisecond);
  // Kill a spine so at least one flow migrates mid-flight; if neither path
  // crossed it, kill the other spine instead.
  topo.set_node_up(spines[0], false);
  fabric.handle_topology_change();
  if (fabric.rerouted_flows() == 0) {
    topo.set_node_up(spines[0], true);
    topo.set_node_up(spines[1], false);
    fabric.handle_topology_change();
  }
  EXPECT_GE(fabric.rerouted_flows(), 1u);
  // Post-reroute both flows share the surviving spine's 10G links: the rate
  // visible immediately after the reroute must be the fresh 5 Gb/s split.
  EXPECT_NEAR(fabric.current_rate(f0), 5e9, 1e7);
  EXPECT_NEAR(fabric.current_rate(f1), 5e9, 1e7);
  sim.run();
  EXPECT_EQ(fabric.completed_flows(), 2u);
}

// ---------------------------------------------------------------------------
// Event coalescing: same-timestamp churn shares one reallocation epoch.
// ---------------------------------------------------------------------------

TEST(MaxMinCoalescing, BurstArrivalsShareOneEpoch) {
  const auto topo = make_star(8);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  std::vector<FlowId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(fabric.start_flow(hosts[static_cast<std::size_t>(i) % 4],
                                    hosts[4 + static_cast<std::size_t>(i) % 4],
                                    8 * sim::kMiB));
  }
  // Nothing has been solved yet; the first synchronous query forces exactly
  // one epoch covering all 20 arrivals.
  EXPECT_GT(fabric.current_rate(ids[0]), 0.0);
  EXPECT_EQ(fabric.allocator_stats().reallocations, 1u);
  EXPECT_EQ(fabric.allocator_stats().coalesced_events, 19u);
  sim.run();
  EXPECT_EQ(fabric.completed_flows(), 20u);
  // Completions at distinct timestamps each get their own epoch, but never
  // more than one per event batch.
  EXPECT_LE(fabric.allocator_stats().reallocations, 21u);
}

TEST(MaxMinCoalescing, ShuffleStartsUnderSingleEpoch) {
  const auto topo = make_star(6);
  sim::Simulator sim;
  const Router router{topo};
  FlowSimulator fabric{sim, topo, router};
  const auto hosts = topo.nodes_of_kind(NodeKind::kHost);
  int n = 0;
  for (const NodeId src : hosts)
    for (const NodeId dst : hosts)
      if (src != dst) fabric.start_flow(src, dst, 1 * sim::kMiB), ++n;
  sim.run();
  EXPECT_EQ(fabric.completed_flows(), static_cast<std::uint64_t>(n));
  // 30 arrivals coalesced into one epoch; 29 requests absorbed.
  EXPECT_EQ(fabric.allocator_stats().coalesced_events,
            static_cast<std::uint64_t>(n - 1));
}

}  // namespace
}  // namespace rb::net
