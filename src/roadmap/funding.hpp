#pragma once
// EC funding allocation across the roadmap's recommendations.
//
// The paper's purpose is "coordinated technology development recommendations
// ... that would be in the best interest of European Big Data companies to
// undertake in concert". This module makes the coordination problem
// explicit: each recommendation maps to a funded programme with a cost and a
// diffusion effect (boosting Bass p — demonstrations, pilot access — and/or
// q — ecosystem and network effects) on one technology in the portfolio.
// allocate_funding() greedily maximizes projected adoption gained per euro
// under a budget, the standard marginal-return heuristic for portfolio
// selection.

#include <string>
#include <vector>

#include "roadmap/adoption.hpp"
#include "roadmap/registry.hpp"
#include "sim/units.hpp"

namespace rb::roadmap {

struct FundingOption {
  int recommendation = 0;      // Sec V.B numbering
  std::string technology;      // portfolio entry the programme accelerates
  sim::Dollars cost = 0.0;     // programme cost
  double p_boost = 0.0;        // relative innovation-coefficient boost
  double q_boost = 0.0;        // relative imitation-coefficient boost
};

/// The roadmap's recommendations as fundable programmes (costs in EUR-as-USD
/// at the scale of FP7/H2020 actions).
std::vector<FundingOption> standard_programme();

/// Projected adoption gain of funding `option`: the increase of the linked
/// technology's cumulative adoption at `horizon_year`.
double adoption_gain(const FundingOption& option, int horizon_year);

struct FundingPlan {
  std::vector<FundingOption> funded;
  sim::Dollars spent = 0.0;
  double total_gain = 0.0;  // sum of adoption-fraction gains
};

/// Greedy gain-per-cost selection under `budget`. Deterministic; options
/// with zero gain are never funded. Throws on negative budget.
FundingPlan allocate_funding(sim::Dollars budget, int horizon_year = 2026);

}  // namespace rb::roadmap
