#include "faults/domains.hpp"

#include <algorithm>
#include <queue>

namespace rb::faults {

namespace {

bool is_switch(net::NodeKind kind) noexcept {
  return kind == net::NodeKind::kEdgeSwitch ||
         kind == net::NodeKind::kAggSwitch ||
         kind == net::NodeKind::kCoreSwitch;
}

}  // namespace

std::vector<FailureDomain> pod_domains(const net::Topology& topo) {
  // Connected components of the switch subgraph with core switches removed:
  // in a fat-tree each pod's edge+agg switches form one component (agg-core
  // links cross an excluded core node); in a leaf-spine everything is one
  // component — correctly, since there is no core tier to isolate pods.
  std::vector<int> component(topo.node_count(), -1);
  int next = 0;
  for (net::NodeId seed = 0; seed < topo.node_count(); ++seed) {
    const net::NodeKind kind = topo.node(seed).kind;
    if (!is_switch(kind) || kind == net::NodeKind::kCoreSwitch) continue;
    if (component[seed] != -1) continue;
    const int c = next++;
    std::queue<net::NodeId> frontier;
    component[seed] = c;
    frontier.push(seed);
    while (!frontier.empty()) {
      const net::NodeId at = frontier.front();
      frontier.pop();
      for (const auto& [peer, link] : topo.adjacency(at)) {
        static_cast<void>(link);
        const net::NodeKind pk = topo.node(peer).kind;
        if (!is_switch(pk) || pk == net::NodeKind::kCoreSwitch) continue;
        if (component[peer] != -1) continue;
        component[peer] = c;
        frontier.push(peer);
      }
    }
  }
  std::vector<FailureDomain> domains(static_cast<std::size_t>(next));
  for (int c = 0; c < next; ++c) {
    domains[static_cast<std::size_t>(c)].name = "pod" + std::to_string(c);
  }
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    if (component[id] == -1) continue;
    auto& d = domains[static_cast<std::size_t>(component[id])];
    d.switches.push_back(id);
    if (topo.node(id).kind == net::NodeKind::kEdgeSwitch) {
      for (const auto& [peer, link] : topo.adjacency(id)) {
        static_cast<void>(link);
        if (topo.node(peer).kind == net::NodeKind::kHost)
          d.hosts.push_back(peer);
      }
    }
  }
  for (auto& d : domains) {
    std::sort(d.hosts.begin(), d.hosts.end());
    d.hosts.erase(std::unique(d.hosts.begin(), d.hosts.end()), d.hosts.end());
  }
  return domains;
}

void add_domain_outage(FaultPlan& plan, const FailureDomain& domain,
                       sim::SimTime at, sim::SimTime outage) {
  for (const net::NodeId host : domain.hosts) {
    plan.add_node_outage(host, at, outage);
  }
  for (const net::NodeId sw : domain.switches) {
    plan.add_node_outage(sw, at, outage);
  }
}

}  // namespace rb::faults
