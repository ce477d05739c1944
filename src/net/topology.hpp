#pragma once
// Datacenter topology graph and standard builders (fat-tree, leaf-spine).
//
// Nodes are hosts or switches; links are full-duplex and modelled as a pair
// of independent directed capacities (flow-level simulation allocates each
// direction separately). Link rates use the Ethernet generations the roadmap
// discusses (10/40/100/400GbE, Secs IV.A.1 and IV.A.3).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace rb::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

enum class NodeKind : std::uint8_t {
  kHost,
  kEdgeSwitch,   // top-of-rack / leaf
  kAggSwitch,    // aggregation / spine
  kCoreSwitch,
  kResourcePool,  // disaggregated memory/storage pool endpoint
};

/// Ethernet generations from the roadmap's networking discussion.
enum class EthernetGen : std::uint8_t { k10G, k40G, k100G, k400G };

/// Line rate of a generation in bits/s.
sim::BitsPerSecond rate_of(EthernetGen gen) noexcept;

/// First year of broad availability (Sec IV.A.3: beyond-400GbE "after 2020").
int availability_year(EthernetGen gen) noexcept;

/// Rough per-port switch capex in USD (commodity pricing at introduction).
sim::Dollars port_cost(EthernetGen gen) noexcept;

/// Per-port power draw in watts.
sim::Watts port_power(EthernetGen gen) noexcept;

std::string to_string(EthernetGen gen);

struct NodeInfo {
  NodeKind kind = NodeKind::kHost;
  std::string name;
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  sim::BitsPerSecond rate = 0.0;
  sim::SimTime latency = 0;  // one-way propagation + forwarding latency
};

/// Undirected multigraph of nodes and links with O(1) adjacency lookup.
///
/// Every node and link carries an up/down state for fault injection (all up
/// by default; the state vectors are allocated only on the first state
/// change, so a topology that never fails pays nothing). `state_epoch()`
/// increments on every change, letting routers invalidate cached routes.
class Topology {
 public:
  NodeId add_node(NodeKind kind, std::string name);
  LinkId add_link(NodeId a, NodeId b, sim::BitsPerSecond rate,
                  sim::SimTime latency);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t link_count() const noexcept { return links_.size(); }

  const NodeInfo& node(NodeId id) const { return nodes_.at(id); }
  const Link& link(LinkId id) const { return links_.at(id); }

  /// Neighbors of `id` as (peer node, connecting link) pairs.
  const std::vector<std::pair<NodeId, LinkId>>& adjacency(NodeId id) const {
    return adj_.at(id);
  }

  /// All node ids of a given kind.
  std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  /// Total switch port count (each link endpoint on a switch is one port).
  std::size_t switch_ports() const noexcept;

  /// --- Fault state ---

  /// Mark a node (host or switch) down or repaired. Throws on unknown id.
  void set_node_up(NodeId id, bool up);
  /// Mark a link down or repaired. Throws on unknown id.
  void set_link_up(LinkId id, bool up);

  bool node_up(NodeId id) const {
    return node_up_.empty() ? id < nodes_.size() : node_up_.at(id);
  }
  bool link_up(LinkId id) const {
    return link_up_.empty() ? id < links_.size() : link_up_.at(id);
  }

  /// A link carries traffic only if it and both endpoints are up.
  bool link_usable(LinkId id) const {
    if (!link_up(id)) return false;
    const Link& l = links_.at(id);
    return node_up(l.a) && node_up(l.b);
  }

  /// --- Gray-failure (degraded) state ---
  ///
  /// A component can be *slow* without being down: a flaky optic, an
  /// overheating NIC, a switch with a failing line card. A slowdown factor
  /// f >= 1 multiplies the component's latency and divides its effective
  /// bandwidth; 1.0 means healthy. Like up/down state, the vectors are
  /// materialized only on the first degradation, so healthy topologies pay
  /// nothing. Throws std::invalid_argument on unknown id or factor < 1.

  void set_node_slowdown(NodeId id, double factor);
  void set_link_slowdown(LinkId id, double factor);

  double node_slowdown(NodeId id) const {
    return node_slow_.empty() ? 1.0 : node_slow_.at(id);
  }
  double link_slowdown(LinkId id) const {
    return link_slow_.empty() ? 1.0 : link_slow_.at(id);
  }

  /// Combined factor traffic crossing link `id` experiences: the link's own
  /// slowdown times both endpoints' (a gray host or switch slows every link
  /// it touches).
  double effective_slowdown(LinkId id) const {
    if (node_slow_.empty() && link_slow_.empty()) return 1.0;
    const Link& l = links_.at(id);
    return link_slowdown(id) * node_slowdown(l.a) * node_slowdown(l.b);
  }

  /// Incremented on every set_node_up/set_link_up/set_*_slowdown that
  /// changes state.
  std::uint64_t state_epoch() const noexcept { return epoch_; }

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adj_;
  // Empty means "everything up"; materialized lazily on first fault.
  std::vector<bool> node_up_;
  std::vector<bool> link_up_;
  // Empty means "everything healthy"; materialized on first degradation.
  std::vector<double> node_slow_;
  std::vector<double> link_slow_;
  std::uint64_t epoch_ = 0;
};

/// Parameters shared by the topology builders.
struct FabricParams {
  EthernetGen host_gen = EthernetGen::k10G;    // host uplinks
  EthernetGen fabric_gen = EthernetGen::k40G;  // switch-to-switch links
  sim::SimTime link_latency = 500 * sim::kNanosecond;
};

/// k-ary fat-tree (Al-Fares): k pods, (k/2)^2 core switches, k/2 aggregation
/// and k/2 edge switches per pod, k/2 hosts per edge switch. Requires k even,
/// k >= 2. Hosts are named "h<i>".
Topology make_fat_tree(int k, const FabricParams& params = {});

/// Two-tier leaf-spine: every leaf connects to every spine.
Topology make_leaf_spine(int spines, int leaves, int hosts_per_leaf,
                         const FabricParams& params = {});

/// Single-switch star (baseline / unit tests).
Topology make_star(int hosts, const FabricParams& params = {});

/// Disaggregated rack (Sec IV.A.3's composable hardware): compute hosts and
/// resource pools (memory/storage sleds) hang off one rack switch; pools get
/// `pool_gen` links (pooled memory needs the fattest pipes in the rack —
/// 100/400GbE), hosts get `params.host_gen`. Pool nodes are named "pool<i>".
Topology make_disaggregated_rack(int hosts, int pools,
                                 EthernetGen pool_gen = EthernetGen::k100G,
                                 const FabricParams& params = {});

}  // namespace rb::net
