#include "serve/ring.hpp"

#include <stdexcept>
#include <string>

#include "sim/hash.hpp"

namespace rb::serve {

namespace {

/// Ring positions claimed per node.
constexpr std::size_t kVnodesPerNode = 64;

/// One splitmix64 step from the (node, vnode) pair.
std::uint64_t vnode_position(ReplicaId node, std::size_t vnode) noexcept {
  return sim::mix64(((static_cast<std::uint64_t>(node) << 20) ^
                     static_cast<std::uint64_t>(vnode)) +
                    sim::kSplitMixGamma);
}

}  // namespace

void HashRing::add_node(ReplicaId id) {
  if (contains(id))
    throw std::invalid_argument{"HashRing: duplicate node " +
                                std::to_string(id)};
  nodes_.emplace(id, true);
  for (std::size_t v = 0; v < kVnodesPerNode; ++v) {
    std::uint64_t pos = vnode_position(id, v);
    // Linear-probe past the (astronomically rare) position collision so
    // every vnode lands and lookups stay deterministic.
    while (!ring_.emplace(pos, id).second) ++pos;
  }
}

void HashRing::set_up(ReplicaId id, bool up) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw std::invalid_argument{"HashRing: unknown node " +
                                std::to_string(id)};
  it->second = up;
}

bool HashRing::up(ReplicaId id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw std::invalid_argument{"HashRing: unknown node " +
                                std::to_string(id)};
  return it->second;
}

bool HashRing::contains(ReplicaId id) const noexcept {
  return nodes_.find(id) != nodes_.end();
}

std::uint64_t HashRing::key_position(std::string_view key) noexcept {
  return sim::fnv1a64(key, 0x5e7f1a9bd3c24e68ULL);
}

void HashRing::replicas(std::string_view key, std::size_t r,
                        Placement& out) const {
  if (ring_.empty()) throw std::logic_error{"HashRing: empty ring"};
  out.replicas.clear();
  const std::uint64_t pos = key_position(key);
  auto it = ring_.lower_bound(pos);
  if (it == ring_.end()) it = ring_.begin();
  out.shard = it->first;
  const std::size_t want = std::min(r, nodes_.size());
  out.replicas.reserve(want);
  // Walk clockwise collecting distinct owners; at most one full revolution.
  for (std::size_t steps = 0;
       out.replicas.size() < want && steps < ring_.size(); ++steps) {
    const ReplicaId owner = it->second;
    bool seen = false;
    for (const ReplicaId r_id : out.replicas) seen = seen || r_id == owner;
    if (!seen) out.replicas.push_back(owner);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

ReplicaId HashRing::primary(std::string_view key) const {
  Placement placement;
  replicas(key, 1, placement);
  return placement.replicas.front();
}

std::vector<ReplicaId> HashRing::live_replicas(std::string_view key,
                                               std::size_t r) const {
  Placement placement;
  replicas(key, r, placement);
  std::vector<ReplicaId> live;
  for (const ReplicaId id : placement.replicas) {
    if (nodes_.at(id)) live.push_back(id);
  }
  return live;
}

}  // namespace rb::serve
