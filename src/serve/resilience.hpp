#pragma once
// Resilience control plane of the serving layer: the mechanisms that keep a
// fleet's goodput and tail bounded when things break *partially*.
//
// Admission control (replica.hpp) protects one server from overload; this
// header holds the cross-replica policies the front door composes on top:
//
//  * Deadline propagation — every Request can carry an absolute deadline.
//    Replicas drop already-expired queued work before spending service time
//    on it, and the front door never schedules a retry that would land past
//    the deadline. Without this, a congested cluster burns capacity
//    computing answers nobody is waiting for.
//
//  * RetryBudget — a token bucket capping the fleet-wide retry:first-attempt
//    ratio. Every issued request earns `ratio` tokens (clamped to `burst`);
//    every retry spends one. When a pod dies and thousands of requests fail
//    at once, an unbudgeted client population multiplies offered load by
//    max_attempts and keeps the survivors saturated long after the repair —
//    the metastable retry storm. A budget makes mass failure degrade
//    gracefully: at most `ratio` extra load, the rest fails fast.
//
//  * CircuitBreaker — per-replica closed/open/half-open state driven by
//    consecutive transport failures *and* a latency EWMA, so it also trips
//    on gray failures (the replica answers — slowly — and a failure counter
//    alone would never open). Open breakers reject instantly; after a
//    cooldown the breaker admits a handful of half-open probes and closes
//    again only when they come back fast.
//
//  * Hedging — a straggling attempt is duplicated to the next live owner
//    once it outlives the tracked p95 attempt latency; first response wins,
//    the loser is cancelled (dropped at the replica if still queued, its
//    response ignored otherwise). By construction only ~(100-q)% of
//    attempts hedge, so the extra issued load is bounded (~5% at p95).
//
// All knobs default off; a FrontDoor with a default ResilienceParams
// behaves like the pre-resilience serving plane (modulo jittered backoff).

#include <cstdint>
#include <vector>

#include "sim/units.hpp"

namespace rb::serve {

/// --- Retry budget -------------------------------------------------------

struct RetryBudgetParams {
  bool enabled = false;
  /// Retry tokens earned per issued (first-attempt) request; the steady
  /// state retry:first-attempt ratio the fleet tolerates.
  double ratio = 0.1;
  /// Token-bucket capacity (also the initial balance): short failure blips
  /// retry freely, sustained mass failure hits the ratio.
  double burst = 100.0;
};

class RetryBudget {
 public:
  explicit RetryBudget(const RetryBudgetParams& params);

  /// A first attempt was issued: earn `ratio` tokens, clamped to `burst`.
  void on_issued() noexcept;

  /// Spend one token for a retry. Returns false (and spends nothing) when
  /// the bucket is empty; a disabled budget always grants.
  bool try_spend() noexcept;

  double tokens() const noexcept { return tokens_; }
  std::uint64_t denied() const noexcept { return denied_; }

 private:
  RetryBudgetParams params_;
  double tokens_ = 0.0;
  std::uint64_t denied_ = 0;
};

/// --- Circuit breaker ----------------------------------------------------

struct BreakerParams {
  bool enabled = false;
  /// Consecutive transport failures (kill / unreachable) that open the
  /// breaker from closed.
  int failure_threshold = 5;
  /// How long an open breaker rejects before letting probes through.
  sim::SimTime open_cooldown = 50 * sim::kMillisecond;
  /// Attempts admitted in half-open; each must succeed (and beat the
  /// latency threshold, when configured) for the breaker to close.
  int half_open_probes = 3;
  /// EWMA weight of each new latency sample.
  double latency_alpha = 0.1;
  /// Open when the success-latency EWMA exceeds this (seconds); 0 disables
  /// latency tripping. This is the gray-failure detector: a 10x-degraded
  /// replica fails no requests, it just answers late.
  double latency_threshold_s = 0.0;
  /// Samples required before the EWMA may trip (warm-up guard).
  int min_latency_samples = 16;
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerParams& params);

  /// May this replica be sent an attempt at `now`? Open breakers say no
  /// until the cooldown elapses, then transition to half-open and admit
  /// `half_open_probes` attempts. (Mutates state; call once per candidate
  /// consideration.) A disabled breaker always says yes.
  bool allow(sim::SimTime now);

  /// An attempt on this replica completed in `latency_s` seconds.
  void on_success(double latency_s, sim::SimTime now);
  /// An attempt on this replica died in transport (killed / unreachable).
  void on_failure(sim::SimTime now);

  BreakerState state() const noexcept { return state_; }
  /// Closed -> open (or half-open -> open) transitions so far.
  std::uint64_t opens() const noexcept { return opens_; }
  std::uint64_t denials() const noexcept { return denials_; }

 private:
  void trip(sim::SimTime now);

  BreakerParams params_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int probes_left_ = 0;
  int probe_successes_ = 0;
  double ewma_s_ = 0.0;
  int ewma_samples_ = 0;
  sim::SimTime open_until_ = 0;
  std::uint64_t opens_ = 0;
  std::uint64_t denials_ = 0;
};

/// --- Hedging ------------------------------------------------------------

struct HedgeParams {
  bool enabled = false;
  /// Hedge an attempt once it outlives this percentile of recent attempt
  /// latencies. 95 bounds hedge-issued load at ~5% of first attempts.
  double quantile = 95.0;
  /// Delay used until `min_samples` latencies are recorded (and a floor
  /// below which the tracked quantile never pushes the delay).
  sim::SimTime min_delay = 1 * sim::kMillisecond;
  /// Sliding window of attempt latencies the quantile is computed over.
  std::size_t window = 512;
  std::size_t min_samples = 64;
};

/// Sliding-window quantile estimator for the hedge delay. Keeps the last
/// `window` attempt latencies in a ring buffer; the quantile is recomputed
/// lazily. Deterministic: no clocks, no sampling.
class HedgeDelayTracker {
 public:
  explicit HedgeDelayTracker(const HedgeParams& params);

  /// Record one completed attempt's latency (seconds).
  void record(double latency_s);

  /// Current hedge delay: max(min_delay, quantile of the window).
  sim::SimTime delay() const;

 private:
  HedgeParams params_;
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  mutable sim::SimTime cached_delay_ = 0;
  mutable std::size_t cached_at_ = 0;  // count_ value the cache was built at
  /// The window copy the quantile is selected in, kept so a recompute
  /// allocates nothing.
  mutable std::vector<double> scratch_;
};

/// --- Bundle + accounting ------------------------------------------------

struct ResilienceParams {
  /// Relative deadline stamped on every request at issue; 0 = no deadline.
  /// Absolute deadline = issue time + request_timeout.
  sim::SimTime request_timeout = 0;
  /// Per-attempt timeout: an attempt with no response after this long is
  /// abandoned and the request re-enters the retry path (the zombie attempt
  /// may still be served — that wasted work is what retry budgets bound).
  /// 0 = wait forever (pre-resilience behavior).
  sim::SimTime attempt_timeout = 0;
  RetryBudgetParams budget;
  BreakerParams breaker;
  HedgeParams hedge;
};

/// Front-door-side counters for everything above, mirrored into rb_obs as
/// serve.retries_budgeted / serve.breaker_open / serve.hedges_issued /
/// serve.hedges_won / serve.deadline_drops when telemetry is enabled.
struct ResilienceStats {
  /// Retries denied by the budget (failed fast instead of retrying).
  std::uint64_t retries_budgeted = 0;
  /// Requests dropped for deadline reasons: expired in a replica queue, or
  /// a retry abandoned because it could not land before the deadline.
  std::uint64_t deadline_drops = 0;
  /// Subset of deadline_drops that expired while queued at a replica.
  std::uint64_t deadline_queue_drops = 0;
  /// Attempts abandoned by the per-attempt timeout.
  std::uint64_t attempt_timeouts = 0;
  /// Hedge attempts issued, and hedges whose response won the race.
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  /// Breaker trips (closed/half-open -> open) summed over replicas, and
  /// candidate replicas skipped because their breaker said no.
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_denials = 0;
  /// Served responses that arrived for an already-resolved request (hedge
  /// losers, timed-out zombies): pure wasted service capacity.
  std::uint64_t wasted_responses = 0;
};

/// Mirror one increment of each named stat into the global obs registry
/// (no-op when obs is disabled). Implemented with cached counter handles,
/// matching the other serve metrics.
namespace resilience_metrics {
void retries_budgeted();
void deadline_drop();
void breaker_open();
void hedge_issued();
void hedge_won();
}  // namespace resilience_metrics

}  // namespace rb::serve
