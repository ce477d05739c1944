#include "net/topology.hpp"

namespace rb::net {

sim::BitsPerSecond rate_of(EthernetGen gen) noexcept {
  switch (gen) {
    case EthernetGen::k10G: return 10.0 * sim::kGbps;
    case EthernetGen::k40G: return 40.0 * sim::kGbps;
    case EthernetGen::k100G: return 100.0 * sim::kGbps;
    case EthernetGen::k400G: return 400.0 * sim::kGbps;
  }
  return 0.0;
}

int availability_year(EthernetGen gen) noexcept {
  switch (gen) {
    case EthernetGen::k10G: return 2010;
    case EthernetGen::k40G: return 2012;
    case EthernetGen::k100G: return 2016;
    case EthernetGen::k400G: return 2021;  // "after 2020" [18]
  }
  return 0;
}

sim::Dollars port_cost(EthernetGen gen) noexcept {
  // Commodity per-port pricing; $/Gbps falls with each generation but the
  // absolute per-port price rises (optics dominate at 100/400G).
  switch (gen) {
    case EthernetGen::k10G: return 60.0;
    case EthernetGen::k40G: return 180.0;
    case EthernetGen::k100G: return 350.0;
    case EthernetGen::k400G: return 900.0;
  }
  return 0.0;
}

sim::Watts port_power(EthernetGen gen) noexcept {
  switch (gen) {
    case EthernetGen::k10G: return 1.5;
    case EthernetGen::k40G: return 3.5;
    case EthernetGen::k100G: return 5.5;
    case EthernetGen::k400G: return 12.0;
  }
  return 0.0;
}

std::string to_string(EthernetGen gen) {
  switch (gen) {
    case EthernetGen::k10G: return "10GbE";
    case EthernetGen::k40G: return "40GbE";
    case EthernetGen::k100G: return "100GbE";
    case EthernetGen::k400G: return "400GbE";
  }
  return "?";
}

NodeId Topology::add_node(NodeKind kind, std::string name) {
  nodes_.push_back(NodeInfo{kind, std::move(name)});
  adj_.emplace_back();
  if (!node_up_.empty()) node_up_.push_back(true);
  if (!node_slow_.empty()) node_slow_.push_back(1.0);
  return static_cast<NodeId>(nodes_.size() - 1);
}

LinkId Topology::add_link(NodeId a, NodeId b, sim::BitsPerSecond rate,
                          sim::SimTime latency) {
  if (a >= nodes_.size() || b >= nodes_.size())
    throw std::invalid_argument{"Topology::add_link: unknown node"};
  if (a == b) throw std::invalid_argument{"Topology::add_link: self loop"};
  if (rate <= 0.0) throw std::invalid_argument{"Topology::add_link: rate <= 0"};
  links_.push_back(Link{a, b, rate, latency});
  if (!link_up_.empty()) link_up_.push_back(true);
  if (!link_slow_.empty()) link_slow_.push_back(1.0);
  const auto id = static_cast<LinkId>(links_.size() - 1);
  adj_[a].emplace_back(b, id);
  adj_[b].emplace_back(a, id);
  return id;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == kind) out.push_back(id);
  }
  return out;
}

void Topology::set_node_up(NodeId id, bool up) {
  if (id >= nodes_.size())
    throw std::invalid_argument{"Topology::set_node_up: unknown node"};
  if (node_up_.empty()) node_up_.assign(nodes_.size(), true);
  if (node_up_[id] == up) return;
  node_up_[id] = up;
  ++epoch_;
}

void Topology::set_link_up(LinkId id, bool up) {
  if (id >= links_.size())
    throw std::invalid_argument{"Topology::set_link_up: unknown link"};
  if (link_up_.empty()) link_up_.assign(links_.size(), true);
  if (link_up_[id] == up) return;
  link_up_[id] = up;
  ++epoch_;
}

void Topology::set_node_slowdown(NodeId id, double factor) {
  if (id >= nodes_.size())
    throw std::invalid_argument{"Topology::set_node_slowdown: unknown node"};
  if (factor < 1.0)
    throw std::invalid_argument{"Topology::set_node_slowdown: factor < 1"};
  if (node_slow_.empty()) node_slow_.assign(nodes_.size(), 1.0);
  if (node_slow_[id] == factor) return;
  node_slow_[id] = factor;
  ++epoch_;
}

void Topology::set_link_slowdown(LinkId id, double factor) {
  if (id >= links_.size())
    throw std::invalid_argument{"Topology::set_link_slowdown: unknown link"};
  if (factor < 1.0)
    throw std::invalid_argument{"Topology::set_link_slowdown: factor < 1"};
  if (link_slow_.empty()) link_slow_.assign(links_.size(), 1.0);
  if (link_slow_[id] == factor) return;
  link_slow_[id] = factor;
  ++epoch_;
}

std::size_t Topology::switch_ports() const noexcept {
  std::size_t ports = 0;
  for (const auto& link : links_) {
    if (nodes_[link.a].kind != NodeKind::kHost) ++ports;
    if (nodes_[link.b].kind != NodeKind::kHost) ++ports;
  }
  return ports;
}

Topology make_fat_tree(int k, const FabricParams& params) {
  if (k < 2 || k % 2 != 0)
    throw std::invalid_argument{"make_fat_tree: k must be even and >= 2"};
  Topology topo;
  const int half = k / 2;
  const auto host_rate = rate_of(params.host_gen);
  const auto fabric_rate = rate_of(params.fabric_gen);

  // Core switches: (k/2)^2, indexed [i][j].
  std::vector<NodeId> core;
  core.reserve(static_cast<std::size_t>(half) * half);
  for (int i = 0; i < half * half; ++i) {
    core.push_back(
        topo.add_node(NodeKind::kCoreSwitch, "core" + std::to_string(i)));
  }

  int host_index = 0;
  for (int pod = 0; pod < k; ++pod) {
    std::vector<NodeId> agg(half), edge(half);
    for (int i = 0; i < half; ++i) {
      agg[i] = topo.add_node(
          NodeKind::kAggSwitch,
          "agg" + std::to_string(pod) + "_" + std::to_string(i));
      edge[i] = topo.add_node(
          NodeKind::kEdgeSwitch,
          "edge" + std::to_string(pod) + "_" + std::to_string(i));
    }
    // Edge <-> agg full bipartite inside the pod.
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        topo.add_link(edge[e], agg[a], fabric_rate, params.link_latency);
      }
    }
    // Agg i connects to core switches [i*half, (i+1)*half).
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        topo.add_link(agg[a], core[static_cast<std::size_t>(a) * half + c],
                      fabric_rate, params.link_latency);
      }
    }
    // Hosts under each edge switch.
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        const NodeId host = topo.add_node(
            NodeKind::kHost, "h" + std::to_string(host_index++));
        topo.add_link(host, edge[e], host_rate, params.link_latency);
      }
    }
  }
  return topo;
}

Topology make_leaf_spine(int spines, int leaves, int hosts_per_leaf,
                         const FabricParams& params) {
  if (spines <= 0 || leaves <= 0 || hosts_per_leaf <= 0)
    throw std::invalid_argument{"make_leaf_spine: counts must be positive"};
  Topology topo;
  const auto host_rate = rate_of(params.host_gen);
  const auto fabric_rate = rate_of(params.fabric_gen);

  std::vector<NodeId> spine(static_cast<std::size_t>(spines));
  for (int s = 0; s < spines; ++s) {
    spine[static_cast<std::size_t>(s)] =
        topo.add_node(NodeKind::kAggSwitch, "spine" + std::to_string(s));
  }
  int host_index = 0;
  for (int l = 0; l < leaves; ++l) {
    const NodeId leaf =
        topo.add_node(NodeKind::kEdgeSwitch, "leaf" + std::to_string(l));
    for (const NodeId s : spine) {
      topo.add_link(leaf, s, fabric_rate, params.link_latency);
    }
    for (int h = 0; h < hosts_per_leaf; ++h) {
      const NodeId host =
          topo.add_node(NodeKind::kHost, "h" + std::to_string(host_index++));
      topo.add_link(host, leaf, host_rate, params.link_latency);
    }
  }
  return topo;
}

Topology make_star(int hosts, const FabricParams& params) {
  if (hosts <= 0)
    throw std::invalid_argument{"make_star: hosts must be positive"};
  Topology topo;
  const NodeId sw = topo.add_node(NodeKind::kEdgeSwitch, "sw0");
  for (int h = 0; h < hosts; ++h) {
    const NodeId host =
        topo.add_node(NodeKind::kHost, "h" + std::to_string(h));
    topo.add_link(host, sw, rate_of(params.host_gen), params.link_latency);
  }
  return topo;
}

Topology make_disaggregated_rack(int hosts, int pools, EthernetGen pool_gen,
                                 const FabricParams& params) {
  if (hosts <= 0 || pools <= 0)
    throw std::invalid_argument{
        "make_disaggregated_rack: counts must be positive"};
  Topology topo;
  const NodeId sw = topo.add_node(NodeKind::kEdgeSwitch, "rack-sw");
  for (int h = 0; h < hosts; ++h) {
    const NodeId host =
        topo.add_node(NodeKind::kHost, "h" + std::to_string(h));
    topo.add_link(host, sw, rate_of(params.host_gen), params.link_latency);
  }
  for (int p = 0; p < pools; ++p) {
    const NodeId pool =
        topo.add_node(NodeKind::kResourcePool, "pool" + std::to_string(p));
    topo.add_link(pool, sw, rate_of(pool_gen), params.link_latency);
  }
  return topo;
}

}  // namespace rb::net
