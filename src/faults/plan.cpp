#include "faults/plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "sim/random.hpp"

namespace rb::faults {

void FaultPlan::add(FaultEvent event) {
  if (event.at < 0)
    throw std::invalid_argument{"FaultPlan::add: negative event time"};
  events_.push_back(event);
  sorted_ = false;
}

void FaultPlan::add_link_outage(net::LinkId link, sim::SimTime at,
                                sim::SimTime outage) {
  add(FaultEvent{at, FaultTarget::kLink, link, false});
  if (outage >= 0) add(FaultEvent{at + outage, FaultTarget::kLink, link, true});
}

void FaultPlan::add_node_outage(net::NodeId node, sim::SimTime at,
                                sim::SimTime outage) {
  add(FaultEvent{at, FaultTarget::kNode, node, false});
  if (outage >= 0) add(FaultEvent{at + outage, FaultTarget::kNode, node, true});
}

void FaultPlan::add_machine_outage(std::uint32_t machine, sim::SimTime at,
                                   sim::SimTime outage) {
  add(FaultEvent{at, FaultTarget::kMachine, machine, false});
  if (outage >= 0)
    add(FaultEvent{at + outage, FaultTarget::kMachine, machine, true});
}

void FaultPlan::add_node_degrade(net::NodeId node, sim::SimTime at,
                                 sim::SimTime duration, double factor) {
  if (factor < 1.0)
    throw std::invalid_argument{"FaultPlan::add_node_degrade: factor < 1"};
  add(FaultEvent{at, FaultTarget::kNode, node, false, FaultMode::kDegrade,
                 factor});
  if (duration >= 0) {
    add(FaultEvent{at + duration, FaultTarget::kNode, node, true,
                   FaultMode::kDegrade, 1.0});
  }
}

const std::vector<FaultEvent>& FaultPlan::events() const {
  if (!sorted_) {
    std::stable_sort(
        events_.begin(), events_.end(),
        [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
    sorted_ = true;
  }
  return events_;
}

std::size_t FaultPlan::failures(FaultTarget target) const noexcept {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.target == target && !e.up) ++n;
  }
  return n;
}

namespace {

const char* target_word(FaultTarget t) noexcept {
  switch (t) {
    case FaultTarget::kLink: return "link";
    case FaultTarget::kNode: return "node";
    case FaultTarget::kMachine: return "machine";
  }
  return "?";
}

std::string describe(const FaultEvent& e) {
  return std::string{target_word(e.target)} + " " + std::to_string(e.id) +
         " at t=" + std::to_string(e.at) + " ps";
}

}  // namespace

void FaultPlan::validate(const net::Topology& topo,
                         std::size_t machines) const {
  // One state machine per (target, id) and per fault dimension. Outages and
  // degrades are independent: a degraded component may still die, and a
  // repair only closes the matching dimension.
  std::map<std::pair<FaultTarget, std::uint32_t>, bool> downed;
  std::map<std::pair<FaultTarget, std::uint32_t>, bool> degraded;
  for (const FaultEvent& e : events()) {  // sorted; insertion order on ties
    switch (e.target) {
      case FaultTarget::kLink:
        if (e.id >= topo.link_count())
          throw PlanValidationError{"FaultPlan: unknown " + describe(e)};
        break;
      case FaultTarget::kNode:
        if (e.id >= topo.node_count())
          throw PlanValidationError{"FaultPlan: unknown " + describe(e)};
        break;
      case FaultTarget::kMachine:
        if (e.id >= machines)
          throw PlanValidationError{"FaultPlan: unknown " + describe(e)};
        break;
    }
    const std::pair<FaultTarget, std::uint32_t> key{e.target, e.id};
    if (e.mode == FaultMode::kDegrade) {
      if (!e.up && e.factor < 1.0)
        throw PlanValidationError{"FaultPlan: degrade factor < 1 on " +
                                  describe(e)};
      bool& active = degraded[key];
      if (!e.up && active)
        throw PlanValidationError{
            "FaultPlan: overlapping degrade events on " + describe(e)};
      if (e.up && !active)
        throw PlanValidationError{
            "FaultPlan: degrade recovery without active degrade on " +
            describe(e)};
      active = !e.up;
    } else {
      bool& down = downed[key];
      if (!e.up && down)
        throw PlanValidationError{"FaultPlan: overlapping outage events on " +
                                  describe(e)};
      if (e.up && !down)
        throw PlanValidationError{"FaultPlan: repair without outage on " +
                                  describe(e)};
      down = !e.up;
    }
  }
}

namespace {

/// Alternating up/down renewal process for one component, appended to plan.
void schedule_component(FaultPlan& plan, FaultTarget target, std::uint32_t id,
                        double mtbf_s, double mttr_s, sim::SimTime horizon,
                        sim::Rng& rng) {
  if (mtbf_s <= 0.0) return;
  if (mttr_s <= 0.0)
    throw std::invalid_argument{"make_random_fault_plan: MTTR must be > 0"};
  sim::SimTime t = 0;
  for (;;) {
    t += sim::from_seconds(rng.exponential(mtbf_s));
    if (t >= horizon) break;
    const sim::SimTime down_at = t;
    t += std::max<sim::SimTime>(1, sim::from_seconds(rng.exponential(mttr_s)));
    // Repair lands inside the horizon too, so nothing stays dead forever.
    const sim::SimTime up_at = std::min(t, horizon - 1);
    plan.add(FaultEvent{down_at, target, id, false});
    plan.add(FaultEvent{std::max(up_at, down_at + 1), target, id, true});
  }
}

}  // namespace

FaultPlan make_random_fault_plan(const net::Topology& topo,
                                 const FailureRates& rates,
                                 sim::SimTime horizon, std::uint64_t seed) {
  if (horizon <= 1)
    throw std::invalid_argument{"make_random_fault_plan: horizon too small"};
  FaultPlan plan;
  sim::Rng rng{seed};
  // Fixed iteration order (links, then nodes, by id) + one RNG stream per
  // component (forked in that order) => bit-reproducible schedules.
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    sim::Rng stream = rng.fork();
    schedule_component(plan, FaultTarget::kLink, l, rates.link_mtbf_s,
                       rates.link_mttr_s, horizon, stream);
  }
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    sim::Rng stream = rng.fork();
    const bool is_host = topo.node(n).kind == net::NodeKind::kHost;
    const double mtbf = is_host ? rates.host_mtbf_s : rates.switch_mtbf_s;
    const double mttr = is_host ? rates.host_mttr_s : rates.switch_mttr_s;
    schedule_component(plan, FaultTarget::kNode, n, mtbf, mttr, horizon,
                       stream);
  }
  return plan;
}

FaultPlan make_random_machine_plan(std::size_t machines, double mtbf_s,
                                   double mttr_s, sim::SimTime horizon,
                                   std::uint64_t seed) {
  if (horizon <= 1)
    throw std::invalid_argument{"make_random_machine_plan: horizon too small"};
  FaultPlan plan;
  sim::Rng rng{seed};
  for (std::uint32_t m = 0; m < machines; ++m) {
    sim::Rng stream = rng.fork();
    schedule_component(plan, FaultTarget::kMachine, m, mtbf_s, mttr_s, horizon,
                       stream);
  }
  return plan;
}

}  // namespace rb::faults
