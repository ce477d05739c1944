#pragma once
// Consistent-hash ring with virtual nodes — the shard map of the serving
// plane. Keys hash onto a 64-bit ring; each replica node owns 64
// pseudo-random positions (its virtual nodes), and the arc ending at a
// position belongs to that position's node. A key's shard is the arc it
// lands on; its R owners are the first R *distinct* nodes clockwise from
// there.
//
// Adding a node moves only the arcs it claims, so ~1/N of keys change
// primary (the consistent-hash guarantee; the property test pins it). A
// down host is ejected with set_up(id, false): ownership is unchanged (the
// node still holds its data) and lookups just skip it until
// set_up(id, true). This is what replica failover uses.

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace rb::serve {

using ReplicaId = std::uint32_t;

/// "No replica" sentinel (e.g. no live, breaker-admitted owner to send to).
inline constexpr ReplicaId kInvalidReplica = static_cast<ReplicaId>(-1);

/// Where a key lives: the shard (ring arc, identified by the owning vnode's
/// position) and the distinct owner nodes clockwise from it, primary first.
struct Placement {
  std::uint64_t shard = 0;
  std::vector<ReplicaId> replicas;
};

class HashRing {
 public:
  /// Membership change (reshards ~1/N of the key space). Throws
  /// std::invalid_argument on a duplicate id.
  void add_node(ReplicaId id);

  /// Temporary ejection: a down node keeps its arcs but is skipped by
  /// live_replicas(). Throws std::invalid_argument on unknown id.
  void set_up(ReplicaId id, bool up);
  bool up(ReplicaId id) const;
  bool contains(ReplicaId id) const noexcept;

  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Overwrite `out` with the key's shard and its first min(r, node_count)
  /// distinct owners, regardless of up/down state (ownership is a
  /// membership property). Filling a caller's Placement lets a hot caller
  /// reuse one buffer. Throws std::logic_error on an empty ring.
  void replicas(std::string_view key, std::size_t r, Placement& out) const;

  /// First owner (replicas(key, 1)); throws std::logic_error when empty.
  ReplicaId primary(std::string_view key) const;

  /// The subset of replicas(key, r) that is currently up, in owner order.
  std::vector<ReplicaId> live_replicas(std::string_view key,
                                       std::size_t r) const;

  /// Position of a key on the ring (exposed for tests/diagnostics).
  static std::uint64_t key_position(std::string_view key) noexcept;

 private:
  std::map<std::uint64_t, ReplicaId> ring_;  // vnode position -> owner
  std::map<ReplicaId, bool> nodes_;          // member -> up?
};

}  // namespace rb::serve
