#include "net/routing.hpp"

#include <limits>

#include "sim/hash.hpp"

namespace rb::net {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max();
}

Router::Router(const Topology& topo)
    : topo_{&topo},
      dist_(topo.node_count()),
      computed_(topo.node_count(), false),
      epoch_{topo.state_epoch()} {}

void Router::ensure_dist(NodeId dst) const {
  // Reconverge: drop every cached field when the fault state changed.
  if (epoch_ != topo_->state_epoch()) {
    computed_.assign(topo_->node_count(), false);
    dist_.resize(topo_->node_count());
    epoch_ = topo_->state_epoch();
  }
  if (computed_.at(dst)) return;
  auto& d = dist_[dst];
  d.assign(topo_->node_count(), kUnreachable);
  // A dead destination is unreachable from everywhere (including itself).
  if (topo_->node_up(dst)) {
    d[dst] = 0;
    // BFS queue: nodes are appended once each and read in order by index.
    frontier_.clear();
    frontier_.push_back(dst);
    for (std::size_t head = 0; head < frontier_.size(); ++head) {
      const NodeId cur = frontier_[head];
      for (const auto& [peer, link] : topo_->adjacency(cur)) {
        if (!topo_->link_usable(link)) continue;
        if (d[peer] == kUnreachable) {
          d[peer] = d[cur] + 1;
          frontier_.push_back(peer);
        }
      }
    }
  }
  computed_[dst] = true;
}

int Router::distance(NodeId from, NodeId to) const {
  ensure_dist(to);
  const int d = dist_[to].at(from);
  if (d == kUnreachable)
    throw NoRouteError{"Router::distance: unreachable destination"};
  return d;
}

bool Router::reachable(NodeId from, NodeId to) const {
  if (from >= topo_->node_count() || to >= topo_->node_count()) return false;
  ensure_dist(to);
  return dist_[to][from] != kUnreachable;
}

void Router::path(NodeId src, NodeId dst, std::uint64_t flow_hash,
                  std::vector<LinkId>& out) const {
  out.clear();
  if (src == dst) return;
  ensure_dist(dst);
  const auto& d = dist_[dst];
  if (d.at(src) == kUnreachable)
    throw NoRouteError{"Router::path: unreachable destination"};
  NodeId at = src;
  for (std::uint64_t hop = 0; at != dst; ++hop) {
    const auto& adjacency = topo_->adjacency(at);
    const auto closer = [&](NodeId peer, LinkId link) {
      return d[peer] == d[at] - 1 && topo_->link_usable(link);
    };
    std::size_t options = 0;
    for (const auto& [peer, link] : adjacency) options += closer(peer, link);
    if (options == 0) throw NoRouteError{"Router::path: no next hop"};
    // Deterministic per-hop ECMP: hash(flow, hop) selects among options.
    std::size_t pick =
        static_cast<std::size_t>(sim::mix64(flow_hash ^ (hop << 32)) % options);
    for (const auto& [peer, link] : adjacency) {
      if (!closer(peer, link) || pick-- != 0) continue;
      out.push_back(link);
      at = peer;
      break;
    }
  }
}

}  // namespace rb::net
