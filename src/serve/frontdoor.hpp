#pragma once
// FrontDoor: the serving plane's request router and client population.
//
// An open-loop client population (Poisson arrivals, optionally modulated by
// a diurnal curve; Zipf key popularity over a fixed key universe) issues
// get/put requests from a gateway host against LsmStore-backed replicas
// placed on hosts of a net::Topology. Each request:
//
//   1. is placed by the consistent-hash ring (key -> shard -> R owners);
//   2. travels the fabric (per-link propagation latency + serialization of
//      the payload along the ECMP path the router picks, stretched by any
//      gray-failure slowdown on the links or their endpoints);
//   3. is admitted into the replica's bounded queue — or shed with a typed
//      Overloaded rejection (terminal; shed load is never retried);
//   4. on replica death mid-flight (faults::FaultInjector flipping the host
//      down), fails over: the ring temporarily ejects the dead node and the
//      request retries on a surviving owner with capped exponential
//      backoff + seeded equal-jitter, up to max_attempts, then fails.
//
// On top of plain failover sits the resilience control plane
// (serve/resilience.hpp), every piece off by default:
//
//   * request_timeout stamps an absolute deadline on each request; replicas
//     drop expired queued work, and retries that cannot land before the
//     deadline are abandoned (counted as deadline drops, terminal failed).
//   * attempt_timeout abandons an unanswered attempt and re-enters the
//     retry path; the abandoned attempt may still be served — its response
//     is discarded at the gateway (wasted work, the retry-storm fuel).
//   * The retry budget gates every retry; a denied retry fails fast.
//   * Per-replica circuit breakers steer attempts away from replicas that
//     keep killing requests or (latency EWMA) answer suspiciously slowly.
//   * Hedging duplicates a straggling get to a different live owner after
//     the tracked p95 attempt latency; first response wins, the loser is
//     dropped on delivery if the race is already over, or its response is
//     discarded.
//
// Puts are serviced by one live owner and replicated to the remaining live
// owners asynchronously (applied to their stores at service-finish time; a
// node that was down during the write simply misses it — there is no
// anti-entropy repair, so a later get served by a stale replica returns
// not-found but still *completes*). Puts are never hedged.
//
// The SLO accountant records every outcome; its ledger invariant
// (completed + rejected + failed == issued) holds for every configuration —
// chaos, hedging, timeouts and gray failures included — and is
// test-asserted.
//
// The request path allocates little in steady state. In-flight requests
// live in a RequestTable the front door owns: a pool of reused records
// (each keeps its attempt list's and strings' capacity) behind a ring of
// pool indices that covers only the window of live ids. Event lambdas
// capture ids, not Request copies: an attempt carries (id, wave, target,
// attempt span), and the request is copied from the table when the attempt
// reaches its replica; a response carries (id, wave, span, target, sent).
// Membership is fixed after construction, so every key's owners are
// computed once into a flat table indexed by the key's index in the
// universe; the live-owner list and route lookups fill reused buffers.
//
// A wave's attempt-timeout and hedge timers are no-ops once the wave ends
// (the request resolves, or retry_or_fail bumps its attempt count), so the
// front door keeps their EventHandles in the request's record and cancels
// them then. Those handles point into the simulator: like
// net::FlowSimulator, a FrontDoor must be destroyed before its simulator.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "faults/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "serve/replica.hpp"
#include "serve/resilience.hpp"
#include "serve/ring.hpp"
#include "serve/slo.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace rb::serve {

struct FrontDoorParams {
  /// Replica servers to place on hosts (gateway excluded); 0 = one replica
  /// on every remaining host.
  std::size_t replicas = 0;
  /// Copies per key (capped at the replica count).
  std::size_t replication = 3;

  /// --- Client population (open loop) ---
  std::size_t key_universe = 10'000;
  double zipf_s = 0.99;           // key popularity skew
  double read_fraction = 0.9;     // gets vs puts
  sim::Bytes value_bytes = 256;   // payload of puts / responses
  double offered_qps = 10'000.0;  // mean arrival rate
  /// Arrival rate swings by +-amplitude over one diurnal period (0 = flat).
  double diurnal_amplitude = 0.0;
  sim::SimTime diurnal_period = 10 * sim::kSecond;  // compressed "day"
  sim::SimTime horizon = sim::kSecond;              // arrivals stop here

  /// --- Failover ---
  int max_attempts = 3;
  sim::SimTime retry_backoff = 200 * sim::kMicrosecond;  // doubles per retry
  sim::SimTime retry_backoff_cap = 5 * sim::kMillisecond;

  /// --- Resilience control plane (all knobs default off) ---
  ResilienceParams resilience;

  ReplicaParams replica;
  std::uint64_t seed = 0x5e21;
};

class FrontDoor {
 public:
  /// Places replicas on `topo`'s hosts: hosts[0] is the client gateway,
  /// the next `params.replicas` hosts get one ReplicaServer each. The
  /// topology, router and simulator must outlive the front door. Throws
  /// std::invalid_argument when the topology has too few hosts or the
  /// parameters are degenerate.
  FrontDoor(sim::Simulator& sim, const net::Topology& topo,
            const net::Router& router, const FrontDoorParams& params);

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Write every key of the universe to all of its owners' stores (directly,
  /// outside simulated time) so gets hit from the first request. Key i is
  /// named as write_key_name(i) writes it.
  void preload();

  /// Schedule the arrival process; call before Simulator::run(). All
  /// requests reach a terminal state once the simulator drains.
  void start();

  /// Wire this to faults::FaultInjector::on_event (kNode events): a down
  /// replica host is ejected from the ring and its queued work killed (the
  /// victims fail over); a repaired host resumes serving. A *degraded*
  /// replica host stays in the ring but serves slower by the event's factor
  /// — gray failures are invisible to membership, which is the point.
  void handle_fault(const faults::FaultEvent& event);

  const SloAccountant& slo() const noexcept { return slo_; }
  /// Mutable access for attaching telemetry sinks (rollups, alert engines).
  SloAccountant& slo() noexcept { return slo_; }
  std::size_t replica_count() const noexcept { return replicas_.size(); }
  const ReplicaServer& replica(std::size_t i) const { return *replicas_.at(i); }
  net::NodeId gateway() const noexcept { return gateway_; }
  /// Hosts carrying a replica, in ReplicaId order (chaos-plan targets).
  std::vector<net::NodeId> replica_hosts() const;

  /// Resilience counters, with the per-replica breaker trips/denials summed
  /// in (rolled up at call time).
  ResilienceStats resilience_stats() const;

 private:
  /// One attempt of the current wave still in flight (wire or queue).
  struct Attempt {
    ReplicaId target = 0;
    sim::SimTime sent = 0;  // gateway dispatch time (attempt RTT anchor)
    bool hedge = false;
  };
  /// An issued request that has not yet reached a terminal state. `wave` is
  /// the retry round and always equals req.attempts; completions carrying a
  /// stale attempts value are responses to abandoned (timed-out) attempts
  /// and are discarded.
  struct Pending {
    Request req;
    std::size_t key = 0;            // req.key's index in the key universe
    std::vector<Attempt> attempts;  // current wave only
    bool hedged = false;            // this wave already hedged
    bool rejected = false;          // an attempt of this wave was shed
    bool expired = false;           // an attempt expired in a replica queue
    /// The current wave's timers; cancelled when the wave ends.
    sim::EventHandle timeout_timer;
    sim::EventHandle hedge_timer;

    void cancel_timers() noexcept {
      timeout_timer.cancel();
      hedge_timer.cancel();
    }
  };

  /// In-flight requests by id. Records sit in a pool and are reused; a
  /// power-of-two ring of pool indices, addressed by id, covers the ids
  /// from the oldest live one to the newest. Ids are added in increasing
  /// order, so the ring grows with the live window, not with the run.
  /// References to records stay valid until the next add().
  class RequestTable {
   public:
    /// A record for `id`, which must exceed every id added before. Its
    /// attempt list is empty and its flags are clear; `req` keeps the
    /// previous tenant's fields (and string capacity) for the caller to
    /// overwrite.
    Pending& add(std::uint64_t id);
    /// The live record of `id`, or nullptr once it was erased.
    Pending* find(std::uint64_t id) noexcept;
    /// The live record of `id`; throws std::logic_error if there is none.
    Pending& at(std::uint64_t id);
    /// Drop the record of `id`, cancelling its timers.
    void erase(std::uint64_t id) noexcept;

   private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::uint32_t& entry(std::uint64_t id) noexcept {
      return ring_[id & (ring_.size() - 1)];
    }
    std::vector<Pending> pool_;
    std::vector<std::uint32_t> free_;  // pool indices of erased records
    std::vector<std::uint32_t> ring_ = std::vector<std::uint32_t>(64, kNone);
    std::uint64_t oldest_ = 0;  // no id below this is live
    std::uint64_t end_ = 0;     // one past the newest id added
  };

  void schedule_next_arrival();
  void issue();
  /// Overwrite `p`'s request and key index with the next request of the
  /// client population.
  void make_request(Pending& p);
  /// Launch the current retry wave of `id`: one attempt, plus hedge/timeout
  /// timers as configured.
  void start_wave(std::uint64_t id);
  /// Dispatch one attempt to `target`; registers it in the pending entry.
  void dispatch(std::uint64_t id, ReplicaId target, bool hedge);
  /// Preferred-order live owners for the wave, breaker-filtered. Returns
  /// kInvalidReplica when nothing is sendable.
  ReplicaId pick_target(const Pending& p, bool hedge);
  /// The owners of key `key` of the universe, primary first.
  std::span<const ReplicaId> owners(std::size_t key) const noexcept {
    return {key_owners_.data() + key * owners_per_key_, owners_per_key_};
  }
  /// Attempt `wave` of `id` reached `target`; `span` is its attempt span.
  void deliver(std::uint64_t id, int wave, ReplicaId target,
               std::uint64_t span);
  void replica_completed(const Request& req, ReplicaOutcome outcome,
                         ReplicaId target);
  /// The response of attempt `wave` of `id` (attempt span `span`, sent to
  /// `target` at `sent`) reached the gateway.
  void response_arrived(std::uint64_t id, int wave, std::uint64_t span,
                        ReplicaId target, sim::SimTime sent);
  /// The attempt to `target` died in transport (unreachable / killed).
  void attempt_transport_failed(std::uint64_t id, ReplicaId target);
  void on_attempt_timeout(std::uint64_t id, int wave);
  void maybe_hedge(std::uint64_t id, int wave);
  /// The current wave is over with no winner; decide retry vs terminal.
  void wave_exhausted(std::uint64_t id);
  /// Retry gates in order: max_attempts -> deadline -> budget.
  void retry_or_fail(std::uint64_t id);
  void resolve_failed(std::uint64_t id);
  bool remove_attempt(Pending& p, ReplicaId target);
  sim::SimTime backoff_for(int attempts);
  /// One-way fabric delay gateway<->host for `payload` bytes, or -1 when
  /// currently unreachable. Gray-degraded links/endpoints stretch both the
  /// propagation and serialization terms.
  sim::SimTime path_delay(net::NodeId from, net::NodeId to,
                          sim::Bytes payload, std::uint64_t flow_hash);

  sim::Simulator* sim_;
  const net::Topology* topo_;
  const net::Router* router_;
  FrontDoorParams params_;
  net::NodeId gateway_ = net::kInvalidNode;
  HashRing ring_;
  std::vector<std::unique_ptr<ReplicaServer>> replicas_;
  /// min(replication, replica count) owners per key, for every key of the
  /// universe: key k's owners sit at [k * owners_per_key_, +owners_per_key_).
  std::size_t owners_per_key_ = 0;
  std::vector<ReplicaId> key_owners_;
  std::map<net::NodeId, ReplicaId> host_to_replica_;
  SloAccountant slo_;
  sim::Rng rng_;
  sim::ZipfDistribution key_dist_;
  RetryBudget budget_;
  std::vector<CircuitBreaker> breakers_;  // one per replica
  HedgeDelayTracker hedge_delay_;
  ResilienceStats rstats_;
  RequestTable pending_;
  std::uint64_t next_request_id_ = 1;
  bool started_ = false;
  // Reused buffers: a key's live owners and a route.
  std::vector<ReplicaId> live_owners_;
  std::vector<net::LinkId> route_;
};

/// Overwrite `out` with the name of key `index` of the universe: "k" and
/// the index in decimal, zero-padded to at least 8 digits (what
/// snprintf("k%08zu") writes).
void write_key_name(std::size_t index, std::string& out);

/// Ideal aggregate service capacity (requests/s) of `replica_count` replicas
/// at full batching — where benches center their offered-load sweeps.
double estimated_capacity_qps(const FrontDoorParams& params,
                              std::size_t replica_count);

/// Seeded up/down renewal churn (exponential MTBF/MTTR) over exactly the
/// given hosts — the replica-targeted analogue of
/// faults::make_random_fault_plan, leaving gateways and fabric alone.
faults::FaultPlan make_host_churn_plan(const std::vector<net::NodeId>& hosts,
                                       double mtbf_s, double mttr_s,
                                       sim::SimTime horizon,
                                       std::uint64_t seed);

}  // namespace rb::serve
