#pragma once
// Deterministic fault schedules for chaos experiments.
//
// A FaultPlan is an ordered list of component up/down transitions: network
// links, network nodes (switches or hosts), and scheduler machines. Plans
// are either hand-authored (add_*_outage) or generated from MTBF/MTTR
// distributions with an explicit seed (make_random_fault_plan), so every
// chaos run is bit-reproducible. The plan is pure data; the FaultInjector
// (faults/injector.hpp) and the scheduling engine (sched/engine.hpp) replay
// it against live simulations.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/topology.hpp"
#include "sim/units.hpp"

namespace rb::faults {

/// What kind of component a fault event targets.
enum class FaultTarget : std::uint8_t {
  kLink,     // net::LinkId in a Topology
  kNode,     // net::NodeId in a Topology (switch or host)
  kMachine,  // machine index in a sched::Cluster
};

/// How the fault manifests. An outage is the classic binary up/down; a
/// degrade is a *gray failure* — the component keeps answering, just slower
/// by `factor` (a flaky optic, a host with a thermal-throttled CPU). Gray
/// failures are what circuit breakers with latency tripping exist for:
/// health checks pass while the tail burns.
enum class FaultMode : std::uint8_t { kOutage, kDegrade };

struct FaultEvent {
  sim::SimTime at = 0;
  FaultTarget target = FaultTarget::kLink;
  std::uint32_t id = 0;
  bool up = false;  // false = fault begins, true = component recovers
  FaultMode mode = FaultMode::kOutage;
  double factor = 1.0;  // slowdown while a kDegrade fault is active (>= 1)
};

/// Typed rejection for logically inconsistent plans (FaultPlan::validate):
/// unknown component ids, overlapping outages/degrades on one component,
/// repairs without a preceding failure, or degrade factors < 1.
class PlanValidationError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// MTBF/MTTR parameters (seconds of simulated time) for random plan
/// generation. A component class with mtbf <= 0 never fails.
struct FailureRates {
  double link_mtbf_s = 0.0;
  double link_mttr_s = 1.0;
  double switch_mtbf_s = 0.0;
  double switch_mttr_s = 5.0;
  double host_mtbf_s = 0.0;
  double host_mttr_s = 10.0;
};

class FaultPlan {
 public:
  /// Append one raw transition. Events may be added in any order; events()
  /// returns them sorted by (time, insertion order).
  void add(FaultEvent event);

  /// Down at `at`, repaired at `at + outage` (no repair if outage < 0).
  void add_link_outage(net::LinkId link, sim::SimTime at, sim::SimTime outage);
  void add_node_outage(net::NodeId node, sim::SimTime at, sim::SimTime outage);
  void add_machine_outage(std::uint32_t machine, sim::SimTime at,
                          sim::SimTime outage);

  /// Gray failure: slowed by `factor` at `at`, healthy again at
  /// `at + duration` (never recovers if duration < 0). Requires factor >= 1.
  /// A link degrade is built with add() and FaultMode::kDegrade.
  void add_node_degrade(net::NodeId node, sim::SimTime at,
                        sim::SimTime duration, double factor);

  bool empty() const noexcept { return events_.size() == 0; }
  std::size_t size() const noexcept { return events_.size(); }

  /// Events sorted by time (stable for equal times).
  const std::vector<FaultEvent>& events() const;

  /// Number of down-transitions per target kind (for reporting).
  std::size_t failures(FaultTarget target) const noexcept;

  /// Check the schedule is executable against `topo`: every kLink/kNode id
  /// resolves, kMachine ids are < `machines` (pass the cluster size; with
  /// the default 0 any machine event is rejected), no component fails while
  /// already failed or recovers while healthy (outages and degrades are
  /// tracked as independent dimensions — a degraded node may still die),
  /// and every degrade carries a factor >= 1. Throws PlanValidationError
  /// with a diagnostic naming the first offending event; silently
  /// misbehaving schedules (double-kills that "repair" early, typos in
  /// component ids) become loud instead. FaultInjector::arm() calls this.
  void validate(const net::Topology& topo, std::size_t machines = 0) const;

 private:
  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

/// Generate a seeded random fail/repair schedule for every component of the
/// topology over [0, horizon): per component, alternating exponential
/// up-times (mean = class MTBF) and down-times (mean = class MTTR).
/// Deterministic for a fixed (topology, rates, horizon, seed).
FaultPlan make_random_fault_plan(const net::Topology& topo,
                                 const FailureRates& rates,
                                 sim::SimTime horizon, std::uint64_t seed);

/// Same, for scheduler machines (target kMachine, ids 0..machines-1).
FaultPlan make_random_machine_plan(std::size_t machines, double mtbf_s,
                                   double mttr_s, sim::SimTime horizon,
                                   std::uint64_t seed);

}  // namespace rb::faults
