// Resilience control plane: retry-budget token math, circuit-breaker state
// transitions (failure- and latency-driven), hedge-delay tracking, deadline
// propagation, and the SLO ledger invariant with every feature enabled at
// once under churn + gray failure.

#include "serve/resilience.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "serve/frontdoor.hpp"
#include "serve/replica.hpp"
#include "sim/hash.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace rb::serve {
namespace {

/// --- RetryBudget --------------------------------------------------------

TEST(RetryBudget, StartsFullAndSpendsDownToDenial) {
  RetryBudgetParams p;
  p.enabled = true;
  p.ratio = 0.5;
  p.burst = 2.0;
  RetryBudget budget{p};
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());  // empty
  EXPECT_EQ(budget.denied(), 1u);
}

TEST(RetryBudget, IssuedTrafficEarnsRatioClampedToBurst) {
  RetryBudgetParams p;
  p.enabled = true;
  p.ratio = 0.25;
  p.burst = 10.0;
  RetryBudget budget{p};
  for (int i = 0; i < 100; ++i) budget.on_issued();
  EXPECT_DOUBLE_EQ(budget.tokens(), 10.0);  // clamped at burst
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  // Exactly 4 issued requests earn one retry token back.
  for (int i = 0; i < 4; ++i) budget.on_issued();
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
}

TEST(RetryBudget, DisabledBudgetAlwaysGrants) {
  RetryBudget budget{RetryBudgetParams{}};
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.try_spend());
  EXPECT_EQ(budget.denied(), 0u);
}

/// --- CircuitBreaker -----------------------------------------------------

BreakerParams breaker_params() {
  BreakerParams p;
  p.enabled = true;
  p.failure_threshold = 3;
  p.open_cooldown = 10 * sim::kMillisecond;
  p.half_open_probes = 2;
  return p;
}

TEST(CircuitBreaker, ClosedToOpenToHalfOpenToClosed) {
  CircuitBreaker b{breaker_params()};
  sim::SimTime now = 0;
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.on_failure(now);
  b.on_failure(now);
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // below threshold
  b.on_failure(now);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_FALSE(b.allow(now + sim::kMillisecond));  // cooling down
  EXPECT_EQ(b.denials(), 1u);
  now += 10 * sim::kMillisecond;
  EXPECT_TRUE(b.allow(now));  // first half-open probe
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.allow(now));   // second probe
  EXPECT_FALSE(b.allow(now));  // probes exhausted
  b.on_success(0.001, now);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  b.on_success(0.001, now);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopens) {
  CircuitBreaker b{breaker_params()};
  for (int i = 0; i < 3; ++i) b.on_failure(0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  ASSERT_TRUE(b.allow(10 * sim::kMillisecond));
  b.on_failure(10 * sim::kMillisecond);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 2u);
  // The cooldown restarts from the reopen time.
  EXPECT_FALSE(b.allow(19 * sim::kMillisecond));
  EXPECT_TRUE(b.allow(20 * sim::kMillisecond));
}

TEST(CircuitBreaker, SuccessResetsConsecutiveFailures) {
  CircuitBreaker b{breaker_params()};
  b.on_failure(0);
  b.on_failure(0);
  b.on_success(0.001, 0);
  b.on_failure(0);
  b.on_failure(0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // never hit 3 in a row
}

TEST(CircuitBreaker, LatencyEwmaTripsOnGraySlowness) {
  BreakerParams p = breaker_params();
  p.latency_threshold_s = 0.010;
  p.min_latency_samples = 5;
  p.latency_alpha = 0.5;
  CircuitBreaker b{p};
  // Fast traffic never trips it.
  for (int i = 0; i < 20; ++i) b.on_success(0.001, 0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  // Sustained slow-but-successful responses do: the gray-failure signature.
  for (int i = 0; i < 10 && b.state() == BreakerState::kClosed; ++i) {
    b.on_success(0.050, 0);
  }
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 1u);
}

TEST(CircuitBreaker, SlowHalfOpenProbeReopens) {
  BreakerParams p = breaker_params();
  p.latency_threshold_s = 0.010;
  p.min_latency_samples = 2;
  CircuitBreaker b{p};
  for (int i = 0; i < 3; ++i) b.on_failure(0);
  ASSERT_TRUE(b.allow(10 * sim::kMillisecond));
  // Probe succeeded, but above the latency threshold: still gray, reopen.
  b.on_success(0.050, 10 * sim::kMillisecond);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, DisabledBreakerIsTransparent) {
  CircuitBreaker b{BreakerParams{}};
  for (int i = 0; i < 100; ++i) b.on_failure(0);
  EXPECT_TRUE(b.allow(0));
  EXPECT_EQ(b.opens(), 0u);
}

/// --- HedgeDelayTracker --------------------------------------------------

TEST(HedgeDelayTracker, UsesFloorUntilWarm) {
  HedgeParams p;
  p.enabled = true;
  p.min_delay = 2 * sim::kMillisecond;
  p.min_samples = 8;
  HedgeDelayTracker t{p};
  for (int i = 0; i < 7; ++i) t.record(0.5);
  EXPECT_EQ(t.delay(), 2 * sim::kMillisecond);  // not warm yet
  t.record(0.5);
  EXPECT_GT(t.delay(), 2 * sim::kMillisecond);  // now tracking the window
}

TEST(HedgeDelayTracker, TracksTheConfiguredQuantile) {
  HedgeParams p;
  p.enabled = true;
  p.quantile = 90.0;
  p.min_delay = sim::kMicrosecond;
  p.window = 100;
  p.min_samples = 100;
  HedgeDelayTracker t{p};
  // Latencies 1ms..100ms: the p90 sits near 91ms.
  for (int i = 1; i <= 100; ++i) t.record(0.001 * i);
  const double delay_s = sim::to_seconds(t.delay());
  EXPECT_GT(delay_s, 0.085);
  EXPECT_LT(delay_s, 0.095);
}

/// --- Deadline propagation at the replica --------------------------------

ReplicaParams slow_replica() {
  ReplicaParams p;
  p.device = node::find_device(node::DeviceKind::kCpu);
  p.device.service_cv = 0.0;  // deterministic service times
  p.batch_overhead = sim::kMillisecond;
  p.batch_max = 1;  // no batching: strictly one request per service slot
  return p;
}

TEST(ReplicaDeadline, ExpiredQueuedWorkIsDroppedBeforeService) {
  sim::Simulator sim;
  ReplicaServer replica{sim, 0, 0, slow_replica(), 1};
  std::vector<std::pair<std::uint64_t, ReplicaOutcome>> outcomes;
  replica.on_complete([&](const Request& req, ReplicaOutcome out) {
    outcomes.emplace_back(req.id, out);
  });
  Request a;
  a.id = 1;
  a.key = "a";
  ASSERT_TRUE(replica.try_enqueue(a));  // in service immediately
  Request b;
  b.id = 2;
  b.key = "b";
  b.deadline = sim::kMicrosecond;  // expires long before the ~1ms batch ends
  ASSERT_TRUE(replica.try_enqueue(b));
  Request c;
  c.id = 3;
  c.key = "c";
  c.deadline = 10 * sim::kSecond;  // comfortably alive
  ASSERT_TRUE(replica.try_enqueue(c));
  sim.run();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].first, 1u);
  EXPECT_EQ(outcomes[0].second, ReplicaOutcome::kServed);
  // b expired in the queue; c was served in the next slot.
  EXPECT_EQ(replica.requests_expired(), 1u);
  for (const auto& [id, out] : outcomes) {
    if (id == 2) {
      EXPECT_EQ(out, ReplicaOutcome::kExpired);
    } else if (id == 3) {
      EXPECT_EQ(out, ReplicaOutcome::kServed);
    }
  }
}

TEST(ReplicaDeadline, SlowdownStretchesServiceTime) {
  sim::SimTime base_done = 0;
  for (const double factor : {1.0, 4.0}) {
    sim::Simulator sim;
    ReplicaServer replica{sim, 0, 0, slow_replica(), 1};
    sim::SimTime done = 0;
    replica.on_complete([&](const Request&, ReplicaOutcome) {
      done = sim.now();
    });
    replica.set_slowdown(factor);
    Request req;
    req.id = 1;
    req.key = "k";
    ASSERT_TRUE(replica.try_enqueue(req));
    sim.run();
    if (factor == 1.0) {
      base_done = done;
    } else {
      EXPECT_EQ(done, 4 * base_done);
    }
  }
  sim::Simulator sim;
  ReplicaServer replica{sim, 0, 0, slow_replica(), 1};
  EXPECT_THROW(replica.set_slowdown(0.5), std::invalid_argument);
}

/// --- FrontDoor integration ----------------------------------------------

FrontDoorParams resilient_params() {
  FrontDoorParams p;
  p.replication = 3;
  p.key_universe = 2'000;
  p.horizon = 200 * sim::kMillisecond;
  p.offered_qps = 5'000.0;
  p.seed = 0xBEEF;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = sim::kMillisecond;  // slow servers, small tests
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 16;
  p.replica.batch_max = 8;
  return p;
}

void enable_all_resilience(FrontDoorParams& p) {
  p.resilience.request_timeout = 50 * sim::kMillisecond;
  p.resilience.attempt_timeout = 20 * sim::kMillisecond;
  p.resilience.budget.enabled = true;
  p.resilience.budget.ratio = 0.2;
  p.resilience.budget.burst = 20.0;
  p.resilience.breaker.enabled = true;
  p.resilience.breaker.failure_threshold = 5;
  p.resilience.breaker.open_cooldown = 20 * sim::kMillisecond;
  p.resilience.breaker.latency_threshold_s = 0.030;
  p.resilience.hedge.enabled = true;
  p.resilience.hedge.min_delay = 2 * sim::kMillisecond;
  p.resilience.hedge.window = 128;
  p.resilience.hedge.min_samples = 32;
}

struct ChaosResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  bool ledger_ok = false;
  ResilienceStats stats;
  std::uint64_t latency_hash = 0;
};

/// A hash of the whole latency distribution: the bits of the percentile at
/// every sample's rank, so moving any one sample changes it.
std::uint64_t latency_hash(const sim::PercentileTracker& latency) {
  const std::size_t n = latency.count();
  std::uint64_t h = sim::mix64(n + sim::kSplitMixGamma);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = n == 1 ? 0.0
                            : 100.0 * static_cast<double>(i) /
                                  static_cast<double>(n - 1);
    h = sim::mix64(h ^ std::bit_cast<std::uint64_t>(latency.percentile(p)));
  }
  return h;
}

/// Everything on at once: replica churn, a gray host, hedging, timeouts.
ChaosResult run_chaos(std::uint64_t seed) {
  FrontDoorParams params = resilient_params();
  params.seed = seed;
  enable_all_resilience(params);

  net::Topology topo = net::make_leaf_spine(2, 2, 2);  // 4 hosts
  sim::Simulator sim;
  net::Router router{topo};
  FrontDoor door{sim, topo, router, params};
  door.preload();

  const auto hosts = door.replica_hosts();
  faults::FaultPlan plan;
  const sim::SimTime h = params.horizon;
  plan.add_node_outage(hosts[0], h / 5, h / 8);
  plan.add_node_outage(hosts[1], h / 2, h / 8);
  plan.add_node_degrade(hosts[2], h / 4, h / 2, 8.0);  // gray, not dead
  faults::FaultInjector injector{sim, topo, plan};
  injector.on_event(
      [&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
  injector.arm();

  door.start();
  sim.run();

  ChaosResult out;
  out.issued = door.slo().issued();
  out.completed = door.slo().completed();
  out.rejected = door.slo().rejected();
  out.failed = door.slo().failed();
  out.retries = door.slo().retries();
  out.ledger_ok = door.slo().ledger_ok();
  out.stats = door.resilience_stats();
  out.latency_hash = latency_hash(door.slo().latency_seconds());
  return out;
}

TEST(ResilientFrontDoor, LedgerBalancesUnderHedgingChurnAndGrayFailure) {
  for (const std::uint64_t seed : {0xBEEFull, 0xF00Dull, 0x5EEDull, 17ull}) {
    const ChaosResult r = run_chaos(seed);
    EXPECT_TRUE(r.ledger_ok) << "seed " << seed << ": " << r.completed << "+"
                             << r.rejected << "+" << r.failed
                             << " != " << r.issued;
    EXPECT_GT(r.issued, 100u) << "seed " << seed;
    EXPECT_GT(r.completed, 0u) << "seed " << seed;
  }
}

TEST(ResilientFrontDoor, ChaosRunExercisesTheControlPlane) {
  const ChaosResult r = run_chaos(0xBEEF);
  // The gray host plus churn must actually trigger the machinery — a run
  // where nothing hedges or trips would make the ledger test vacuous.
  EXPECT_GT(r.stats.hedges_issued, 0u);
  EXPECT_GT(r.stats.attempt_timeouts + r.retries, 0u);
  EXPECT_GE(r.stats.hedges_won, 0u);
  EXPECT_LE(r.stats.hedges_won, r.stats.hedges_issued);
}

/// Everything run_chaos reports, in one comparable record.
struct Ledger {
  std::uint64_t issued, completed, rejected, failed, retries;
  std::uint64_t retries_budgeted, deadline_drops, deadline_queue_drops,
      attempt_timeouts, hedges_issued, hedges_won, breaker_opens,
      breaker_denials, wasted_responses;
  std::uint64_t latency_hash;

  bool operator==(const Ledger&) const = default;

  static Ledger of(const ChaosResult& r) {
    const ResilienceStats& s = r.stats;
    return {r.issued,           r.completed,       r.rejected,
            r.failed,           r.retries,         s.retries_budgeted,
            s.deadline_drops,   s.deadline_queue_drops,
            s.attempt_timeouts, s.hedges_issued,   s.hedges_won,
            s.breaker_opens,    s.breaker_denials, s.wasted_responses,
            r.latency_hash};
  }

  /// The record as a row of the golden table below.
  std::string row() const {
    std::string out = "{";
    for (const std::uint64_t v :
         {issued, completed, rejected, failed, retries, retries_budgeted,
          deadline_drops, deadline_queue_drops, attempt_timeouts,
          hedges_issued, hedges_won, breaker_opens, breaker_denials,
          wasted_responses}) {
      out += std::to_string(v) + ", ";
    }
    char hash[32];
    std::snprintf(hash, sizeof hash, "0x%016llxULL}",
                  static_cast<unsigned long long>(latency_hash));
    return out + hash;
  }
};

/// The ledger of the chaos run, pinned per seed. This run hedges, times
/// out, retries, trips breakers and sheds load, so it drives every path
/// that arms, fires or cancels a request's timers. A change to the request
/// path that keeps its behaviour keeps every count and every latency
/// sample; a change meant to alter behaviour re-records the table from the
/// rows this test prints and says why.
TEST(ResilientFrontDoor, GoldenLedger) {
  const std::pair<std::uint64_t, Ledger> golden[] = {
      {0xBEEF, {953, 855, 97, 1, 8, 0, 1, 1, 7, 137, 94, 0, 0, 138,
                0x8e77193166ff339bULL}},
      {0xF00D, {947, 841, 106, 0, 6, 0, 0, 0, 5, 121, 82, 0, 0, 114,
                0x2969cc6047674068ULL}},
      {0x5EED, {1043, 904, 138, 1, 14, 0, 1, 1, 9, 128, 77, 0, 0, 118,
                0xbabbc6d877c45c11ULL}},
      {17, {985, 886, 99, 0, 12, 0, 0, 0, 6, 141, 99, 1, 2, 139,
            0x28deb5c897e25244ULL}},
  };
  for (const auto& [seed, want] : golden) {
    const Ledger got = Ledger::of(run_chaos(seed));
    EXPECT_TRUE(got == want) << "seed " << seed << " ran " << got.row();
  }
}

TEST(ResilientFrontDoor, DeterministicForIdenticalSeeds) {
  const ChaosResult a = run_chaos(0xCAFE);
  const ChaosResult b = run_chaos(0xCAFE);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.stats.hedges_issued, b.stats.hedges_issued);
  EXPECT_EQ(a.stats.hedges_won, b.stats.hedges_won);
  EXPECT_EQ(a.stats.attempt_timeouts, b.stats.attempt_timeouts);
  EXPECT_EQ(a.stats.deadline_drops, b.stats.deadline_drops);
  EXPECT_EQ(a.stats.breaker_opens, b.stats.breaker_opens);
  EXPECT_EQ(a.stats.retries_budgeted, b.stats.retries_budgeted);
  EXPECT_EQ(a.stats.wasted_responses, b.stats.wasted_responses);
}

TEST(ResilientFrontDoor, DeadlineDropsAreCountedAndTerminal) {
  FrontDoorParams params = resilient_params();
  // Tight end-to-end deadline, no other machinery: expiries must show up as
  // failed requests and deadline drops, and the ledger must still balance.
  params.resilience.request_timeout = 4 * sim::kMillisecond;
  params.offered_qps = 40'000.0;  // ~1.7x capacity: queues build, work expires
  params.replica.queue_limit = 64;  // deep queues, so waits outlive deadlines

  net::Topology topo = net::make_leaf_spine(2, 2, 2);
  sim::Simulator sim;
  net::Router router{topo};
  FrontDoor door{sim, topo, router, params};
  door.preload();
  door.start();
  sim.run();

  const ResilienceStats stats = door.resilience_stats();
  EXPECT_TRUE(door.slo().ledger_ok());
  EXPECT_GT(stats.deadline_drops, 0u);
  EXPECT_GE(stats.deadline_drops, stats.deadline_queue_drops);
  EXPECT_GE(door.slo().failed(), stats.deadline_drops);
  std::uint64_t replica_expired = 0;
  for (std::size_t i = 0; i < door.replica_count(); ++i) {
    replica_expired += door.replica(i).requests_expired();
  }
  EXPECT_EQ(replica_expired, stats.deadline_queue_drops);
}

TEST(ResilientFrontDoor, RetryBudgetBoundsRetries) {
  FrontDoorParams params = resilient_params();
  params.resilience.budget.enabled = true;
  params.resilience.budget.ratio = 0.05;
  params.resilience.budget.burst = 5.0;
  params.max_attempts = 5;

  net::Topology topo = net::make_leaf_spine(2, 2, 2);
  sim::Simulator sim;
  net::Router router{topo};
  FrontDoor door{sim, topo, router, params};
  door.preload();
  // Kill two of three replicas mid-run and never repair them: every request
  // owning them wants to retry, which is exactly a budget-burning storm.
  const auto hosts = door.replica_hosts();
  faults::FaultPlan plan;
  plan.add_node_outage(hosts[0], params.horizon / 4, -1);
  plan.add_node_outage(hosts[1], params.horizon / 4, -1);
  faults::FaultInjector injector{sim, topo, plan};
  injector.on_event(
      [&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
  injector.arm();
  door.start();
  sim.run();

  const ResilienceStats stats = door.resilience_stats();
  EXPECT_TRUE(door.slo().ledger_ok());
  EXPECT_GT(stats.retries_budgeted, 0u);  // the budget actually said no
  // Retries can never exceed what issuance earned plus the initial burst.
  const double ceiling =
      params.resilience.budget.ratio *
          static_cast<double>(door.slo().issued()) +
      params.resilience.budget.burst;
  EXPECT_LE(static_cast<double>(door.slo().retries()), ceiling + 1.0);
}

}  // namespace
}  // namespace rb::serve
