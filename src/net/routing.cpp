#include "net/routing.hpp"

#include <deque>
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
    std::deque<NodeId> frontier{dst};
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (const auto& [peer, link] : topo_->adjacency(cur)) {
        if (!topo_->link_usable(link)) continue;
        if (d[peer] == kUnreachable) {
          d[peer] = d[cur] + 1;
          frontier.push_back(peer);
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

std::vector<std::pair<NodeId, LinkId>> Router::next_hops(NodeId at,
                                                         NodeId dst) const {
  ensure_dist(dst);
  const auto& d = dist_[dst];
  if (d.at(at) == kUnreachable)
    throw NoRouteError{"Router::next_hops: unreachable destination"};
  std::vector<std::pair<NodeId, LinkId>> hops;
  for (const auto& [peer, link] : topo_->adjacency(at)) {
    if (d[peer] == d[at] - 1 && topo_->link_usable(link))
      hops.emplace_back(peer, link);
  }
  return hops;
}

std::vector<LinkId> Router::path(NodeId src, NodeId dst,
                                 std::uint64_t flow_hash) const {
  std::vector<LinkId> links;
  if (src == dst) return links;
  ensure_dist(dst);
  NodeId at = src;
  int hop = 0;
  while (at != dst) {
    const auto options = next_hops(at, dst);
    if (options.empty()) throw NoRouteError{"Router::path: no next hop"};
    // Deterministic per-hop ECMP: hash(flow, hop) selects among options.
    const auto idx = static_cast<std::size_t>(
        sim::mix64(flow_hash ^ (static_cast<std::uint64_t>(hop) << 32)) %
        options.size());
    links.push_back(options[idx].second);
    at = options[idx].first;
    ++hop;
  }
  return links;
}

}  // namespace rb::net
