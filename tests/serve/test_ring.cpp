#include "serve/ring.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace rb::serve {
namespace {

std::vector<std::string> make_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("key-" + std::to_string(i));
  return keys;
}

Placement placement_of(const HashRing& ring, std::string_view key,
                       std::size_t r) {
  Placement out;
  ring.replicas(key, r, out);
  return out;
}

TEST(HashRing, RejectsDegenerateConfigs) {
  HashRing ring;
  EXPECT_THROW(ring.primary("k"), std::logic_error);
  ring.add_node(1);
  EXPECT_THROW(ring.add_node(1), std::invalid_argument);
  EXPECT_THROW(ring.set_up(2, false), std::invalid_argument);
}

TEST(HashRing, PlacementIsDeterministicAndDistinct) {
  HashRing ring;
  for (ReplicaId id = 0; id < 8; ++id) ring.add_node(id);
  const auto p1 = placement_of(ring, "hello", 3);
  const auto p2 = placement_of(ring, "hello", 3);
  EXPECT_EQ(p1.shard, p2.shard);
  EXPECT_EQ(p1.replicas, p2.replicas);
  ASSERT_EQ(p1.replicas.size(), 3u);
  const std::set<ReplicaId> distinct(p1.replicas.begin(), p1.replicas.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(HashRing, ReusedPlacementIsOverwritten) {
  HashRing ring;
  for (ReplicaId id = 0; id < 8; ++id) ring.add_node(id);
  Placement reused;
  ring.replicas("hello", 3, reused);
  ring.replicas("other", 1, reused);
  const auto fresh = placement_of(ring, "other", 1);
  EXPECT_EQ(reused.shard, fresh.shard);
  EXPECT_EQ(reused.replicas, fresh.replicas);
}

TEST(HashRing, ReplicationCappedAtMembership) {
  HashRing ring;
  ring.add_node(0);
  ring.add_node(1);
  EXPECT_EQ(placement_of(ring, "k", 5).replicas.size(), 2u);
}

/// Property: with 64 vnodes per node, every node's share of a large key
/// population stays within a factor ~2 of the fair share.
TEST(HashRing, KeyBalanceWithinBound) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kKeys = 40'000;
  HashRing ring;
  for (ReplicaId id = 0; id < kNodes; ++id) ring.add_node(id);

  std::map<ReplicaId, std::size_t> owned;
  for (const auto& key : make_keys(kKeys)) ++owned[ring.primary(key)];

  const double fair = static_cast<double>(kKeys) / kNodes;
  for (ReplicaId id = 0; id < kNodes; ++id) {
    const double share = static_cast<double>(owned[id]);
    EXPECT_GT(share, 0.45 * fair) << "node " << id << " underloaded";
    EXPECT_LT(share, 2.0 * fair) << "node " << id << " overloaded";
  }
}

/// Property: adding one node to N moves ~1/(N+1) of the keys — and never
/// more than a constant factor of it (minimal movement, the consistent-hash
/// guarantee). A naive mod-N rehash would move ~N/(N+1), caught here.
TEST(HashRing, JoinMovesAboutOneOverNKeys) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kKeys = 40'000;
  const auto keys = make_keys(kKeys);

  HashRing ring;
  for (ReplicaId id = 0; id < kNodes; ++id) ring.add_node(id);
  std::vector<ReplicaId> before;
  before.reserve(kKeys);
  for (const auto& key : keys) before.push_back(ring.primary(key));

  ring.add_node(kNodes);  // join
  std::size_t moved = 0;
  std::size_t moved_to_new = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const ReplicaId now = ring.primary(keys[i]);
    if (now != before[i]) {
      ++moved;
      moved_to_new += now == kNodes;
    }
  }
  const double expected = 1.0 / (kNodes + 1);
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.4 * expected);
  EXPECT_LT(fraction, 2.0 * expected);
  // Minimal movement: keys only ever move TO the joining node.
  EXPECT_EQ(moved, moved_to_new);
}

TEST(HashRing, EjectionSkipsDownNodesButKeepsOwnership) {
  HashRing ring;
  for (ReplicaId id = 0; id < 4; ++id) ring.add_node(id);
  const auto owners = placement_of(ring, "some-key", 3).replicas;
  ASSERT_EQ(owners.size(), 3u);

  ring.set_up(owners[0], false);
  // Ownership unchanged while down...
  EXPECT_EQ(placement_of(ring, "some-key", 3).replicas, owners);
  // ...but lookups skip the down node.
  const auto live = ring.live_replicas("some-key", 3);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], owners[1]);
  EXPECT_EQ(live[1], owners[2]);

  ring.set_up(owners[0], true);
  EXPECT_EQ(ring.live_replicas("some-key", 3), owners);
}

}  // namespace
}  // namespace rb::serve
