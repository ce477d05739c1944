#pragma once
// Shortest-path routing with ECMP (equal-cost multi-path) selection.
//
// Routes are computed on hop count (all fabric links are "equal cost", as in
// a standard L3 Clos). For each destination we precompute the BFS distance
// field; next hops toward a destination are all neighbors one hop closer.
// Flows pick among equal-cost next hops with a deterministic hash of the
// flow id — the flow-level analogue of 5-tuple ECMP hashing.
//
// path() writes into a caller's buffer and allocates nothing once that
// buffer and the distance field are warm: at each hop it walks the node's
// adjacency twice, once to count the equal-cost options and once to take
// the hashed one. Callers on hot paths (FlowSimulator, FrontDoor) keep one
// scratch vector and pass it on every call. Recomputing a distance field
// allocates nothing either once the router is warm: the field is refilled
// in place and the BFS queue is one reused member vector read by index.
//
// The router is failure-aware: dead links and dead nodes (see
// Topology::set_link_up / set_node_up) are excluded from the BFS, and all
// cached distance fields are invalidated whenever the topology's state epoch
// changes — the flow-level analogue of routing-protocol reconvergence.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/topology.hpp"

namespace rb::net {

/// Thrown when no path exists between two endpoints — either because the
/// topology is partitioned by construction or because failures disconnected
/// it. Derives from std::runtime_error so legacy catch sites keep working.
class NoRouteError : public std::runtime_error {
 public:
  explicit NoRouteError(const std::string& what) : std::runtime_error{what} {}
};

class Router {
 public:
  explicit Router(const Topology& topo);

  /// Hop distance from `from` to `to`; throws NoRouteError if unreachable.
  int distance(NodeId from, NodeId to) const;

  /// True if a live path exists from `from` to `to` (never throws).
  bool reachable(NodeId from, NodeId to) const;

  /// Replace `out` with the links of the ECMP path chosen for `flow_hash`
  /// from `src` to `dst`, in order: at hop h it takes option
  /// mix64(flow_hash ^ h << 32) % count among the usable links to a
  /// neighbor one hop closer to `dst`, in adjacency order. Empty when
  /// src == dst. Throws NoRouteError if disconnected.
  void path(NodeId src, NodeId dst, std::uint64_t flow_hash,
            std::vector<LinkId>& out) const;

 private:
  void ensure_dist(NodeId dst) const;

  const Topology* topo_;
  // dist_[dst][node] = hops from node to dst; computed lazily per dst and
  // discarded wholesale when the topology's fault state changes.
  mutable std::vector<std::vector<int>> dist_;
  mutable std::vector<bool> computed_;
  mutable std::uint64_t epoch_ = 0;
  /// ensure_dist's BFS queue, kept across calls for its capacity.
  mutable std::vector<NodeId> frontier_;
};

}  // namespace rb::net
