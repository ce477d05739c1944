#include "serve/replica.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "node/device.hpp"
#include "sim/simulator.hpp"

namespace rb::serve {
namespace {

ReplicaParams fast_params() {
  ReplicaParams p;
  p.device = node::find_device(node::DeviceKind::kCpu);
  p.device.service_cv = 0.0;  // deterministic service for exact assertions
  p.queue_limit = 4;
  p.batch_max = 4;
  p.batch_overhead = 10 * sim::kMicrosecond;
  return p;
}

Request make_get(std::uint64_t id, std::string key) {
  Request req;
  req.id = id;
  req.op = OpKind::kGet;
  req.key = std::move(key);
  return req;
}

TEST(ReplicaServer, ServesAdmittedRequestsExactlyOnce) {
  sim::Simulator sim;
  ReplicaServer replica{sim, 0, 0, fast_params(), 42};
  replica.store().put("a", "1");

  std::vector<std::uint64_t> done;
  replica.on_complete([&](const Request& req, ReplicaOutcome outcome) {
    EXPECT_EQ(outcome, ReplicaOutcome::kServed);
    done.push_back(req.id);
  });
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(replica.try_enqueue(make_get(i, "a")));
  }
  sim.run();
  EXPECT_EQ(done.size(), 3u);
  EXPECT_EQ(replica.requests_served(), 3u);
}

TEST(ReplicaServer, BatchingAmortizes) {
  sim::Simulator sim;
  auto params = fast_params();
  params.queue_limit = 64;
  params.batch_max = 8;
  ReplicaServer replica{sim, 0, 0, params, 42};
  // 24 requests land while the server is busy with the first: far fewer
  // batches than requests, so the fixed overhead is amortized.
  for (std::uint64_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(replica.try_enqueue(make_get(i, "k")));
  }
  sim.run();
  EXPECT_EQ(replica.requests_served(), 24u);
  EXPECT_LT(replica.batches(), 16u);  // mean batch size above 1.5
  // Amortized per-request cost is below the lone-request cost.
  const auto amortized = ReplicaServer::amortized_service_time(params);
  auto solo = params;
  solo.batch_max = 1;
  EXPECT_LT(amortized, ReplicaServer::amortized_service_time(solo));
}

TEST(ReplicaServer, AdmissionControlRefusesWhenQueueFull) {
  sim::Simulator sim;
  auto params = fast_params();
  params.queue_limit = 2;
  params.batch_max = 1;
  ReplicaServer replica{sim, 0, 0, params, 42};
  std::size_t admitted = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    admitted += replica.try_enqueue(make_get(i, "k"));
  }
  // One in service + queue_limit waiting; the rest refused.
  EXPECT_EQ(admitted, 3u);
  sim.run();
  EXPECT_EQ(replica.requests_served(), admitted);
}

TEST(ReplicaServer, DeathKillsQueuedWorkAndRevivalResumes) {
  sim::Simulator sim;
  auto params = fast_params();
  params.queue_limit = 16;
  ReplicaServer replica{sim, 0, 0, params, 42};

  std::size_t served = 0;
  std::size_t killed = 0;
  replica.on_complete([&](const Request&, ReplicaOutcome outcome) {
    outcome == ReplicaOutcome::kServed ? ++served : ++killed;
  });
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(replica.try_enqueue(make_get(i, "k")));
  }
  replica.set_down();
  EXPECT_EQ(killed, 6u);
  EXPECT_FALSE(replica.serving());
  EXPECT_FALSE(replica.try_enqueue(make_get(99, "k")));

  sim.run();  // the stale batch-finish event must be a no-op
  EXPECT_EQ(served, 0u);

  replica.set_up();
  EXPECT_TRUE(replica.try_enqueue(make_get(100, "k")));
  sim.run();
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(replica.requests_killed(), 6u);
}

}  // namespace
}  // namespace rb::serve
