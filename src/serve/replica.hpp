#pragma once
// One replica of the serving plane: an LsmStore behind a bounded FIFO
// request queue with batched service.
//
// Service model (the node-layer "roofline/service-time machinery"): a batch
// of n requests costs one fixed per-batch overhead (request parsing, NIC
// doorbell, queue handoff) plus the roofline time of the per-request kernel
// scaled by n on the configured device (node::offload_time, so PCIe-attached
// devices also pay launch + transfer once per batch). Amortization is
// therefore explicit: per-request cost falls as batches fill, which is what
// creates the throughput plateau the admission-control knee sits on. A
// seeded lognormal jitter multiplies each batch time (device service_cv).
//
// Admission control: try_enqueue() refuses when the queue already holds
// `queue_limit` waiting requests — the caller turns that into a typed
// Overloaded rejection instead of letting queueing delay grow unboundedly.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/topology.hpp"
#include "node/device.hpp"
#include "node/roofline.hpp"
#include "serve/request.hpp"
#include "serve/ring.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "storage/lsm.hpp"

namespace rb::serve {

struct ReplicaParams {
  /// Waiting requests admitted beyond the in-service batch; 0 disables
  /// queueing entirely (every request must catch the server idle).
  std::size_t queue_limit = 64;
  /// Max requests folded into one service batch (>= 1).
  std::size_t batch_max = 8;
  /// Fixed cost per batch, amortized across its requests.
  sim::SimTime batch_overhead = 20 * sim::kMicrosecond;
  /// Device executing the per-request kernel (roofline service time).
  node::DeviceModel device;
  /// Roofline work of one request (scaled linearly by batch size).
  node::KernelProfile per_request{2.0e4, 6.0e4, 1.0, 512.0};
  storage::LsmOptions store;
};

/// How the replica finished with a request it had admitted.
enum class ReplicaOutcome : std::uint8_t {
  kServed,   // executed against the store
  kKilled,   // replica went down first; the front door may fail over
  kExpired,  // deadline passed while queued; dropped before costing service
};

class ReplicaServer {
 public:
  /// Fires at service-finish (kServed) or death (kKilled) time.
  using Completion = std::function<void(const Request&, ReplicaOutcome)>;

  ReplicaServer(sim::Simulator& sim, ReplicaId id, net::NodeId host,
                const ReplicaParams& params, std::uint64_t seed);

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  void on_complete(Completion fn) { completion_ = std::move(fn); }

  /// Admit a request, or refuse (admission control) when the queue is full
  /// or the replica is down. Admitted requests always reach the completion
  /// callback exactly once.
  bool try_enqueue(Request req);

  /// Host died: drop the in-service batch and the whole queue, reporting
  /// every victim as kKilled at the current time. No-op when already down.
  void set_down();
  /// Host repaired: resume accepting requests.
  void set_up();
  bool serving() const noexcept { return up_; }

  /// Gray failure: stretch every subsequent batch's service time by
  /// `factor` (>= 1; 1 restores full speed). The replica keeps accepting
  /// and answering — slowly — which is exactly what makes gray failures
  /// harder on callers than clean outages.
  void set_slowdown(double factor);

  net::NodeId host() const noexcept { return host_; }
  std::size_t queue_depth() const noexcept {
    return queue_.size() + batch_.size();
  }

  storage::LsmStore& store() noexcept { return store_; }
  const storage::LsmStore& store() const noexcept { return store_; }

  std::uint64_t requests_served() const noexcept { return served_; }
  std::uint64_t requests_killed() const noexcept { return killed_; }
  /// Queued requests dropped because their deadline passed before service.
  std::uint64_t requests_expired() const noexcept { return expired_; }
  std::uint64_t batches() const noexcept { return batches_; }

  /// Ideal per-request service time at full batching — `(overhead +
  /// roofline(batch_max x kernel)) / batch_max`. The capacity planning
  /// number benches use to place their load sweeps.
  static sim::SimTime amortized_service_time(const ReplicaParams& params);

 private:
  void maybe_start_batch();
  void finish_batch(std::uint64_t generation);
  void execute(const Request& req, const obs::TraceContext& service_ctx);

  sim::Simulator* sim_;
  ReplicaId id_;
  net::NodeId host_;
  ReplicaParams params_;
  storage::LsmStore store_;
  sim::Rng rng_;
  Completion completion_;
  std::deque<Request> queue_;
  std::vector<Request> batch_;  // in service; empty when idle
  /// The other batch buffer: finish_batch walks one while batch_ holds the
  /// other, so neither gives up its capacity.
  std::vector<Request> spare_batch_;
  bool up_ = true;
  double slowdown_ = 1.0;
  sim::SimTime batch_started_ = 0;  // queue/service split for tracing
  /// Bumped by set_down() so a batch-finish event scheduled before the
  /// death is ignored when it fires.
  std::uint64_t generation_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t killed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace rb::serve
