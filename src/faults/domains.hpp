#pragma once
// Correlated failure domains derived from a net::Topology.
//
// Independent per-component MTBF/MTTR churn (plan.hpp) misses the failures
// that actually hurt at datacenter scale: a bad aggregation-layer push
// blackholes a whole pod at once. This module groups a topology into pods
// (the switch fabric reachable without crossing the core, plus its hosts)
// and builds FaultPlans where every member of a pod fails together.
//
// Pod derivation is structural, not name-based: pods are the connected
// components of the non-core switch subgraph. It therefore works for every
// builder in net/topology.hpp (fat-tree pods; a leaf-spine or a star is
// one pod).

#include <cstddef>
#include <string>
#include <vector>

#include "faults/plan.hpp"
#include "net/topology.hpp"
#include "sim/units.hpp"

namespace rb::faults {

/// One blast radius: the hosts that share the fate of a piece of shared
/// infrastructure, plus the switches that make up that infrastructure.
struct FailureDomain {
  std::string name;                   // "pod1"
  std::vector<net::NodeId> hosts;     // sorted by id
  std::vector<net::NodeId> switches;  // sorted by id; edge + agg
};

/// One domain per connected component of the switch graph with core
/// switches removed: its edge/agg switches plus every host attached to
/// them. A leaf-spine fabric (no core tier) is a single pod.
std::vector<FailureDomain> pod_domains(const net::Topology& topo);

/// Correlated outage: every member host and switch dies at `at` and is
/// repaired `outage` later (never, if outage < 0). The switches going too
/// makes the domain unreachable, so in-flight requests die on the wire, not
/// just in queues.
void add_domain_outage(FaultPlan& plan, const FailureDomain& domain,
                       sim::SimTime at, sim::SimTime outage);

}  // namespace rb::faults
