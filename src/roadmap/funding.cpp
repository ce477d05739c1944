#include "roadmap/funding.hpp"

#include <algorithm>
#include <stdexcept>

namespace rb::roadmap {

std::vector<FundingOption> standard_programme() {
  // Costs are representative EC collaborative-action budgets; boosts encode
  // what each action can plausibly move: demonstrations raise p, ecosystem
  // building raises q.
  return {
      {1, "10/40GbE", 8e6, 0.30, 0.10},         // adoption push
      {2, "GPGPU", 20e6, 0.25, 0.20},           // HPC/BD dual-purpose pilots
      {3, "400GbE", 15e6, 0.35, 0.05},          // DC-design anticipation
      {4, "FPGA-accel", 25e6, 0.60, 0.25},      // lower accelerator risk
      {5, "SiP-chiplets", 30e6, 0.40, 0.20},    // co-design projects
      {6, "FPGA-accel", 18e6, 0.35, 0.30},      // programmability tooling
      {7, "Neuromorphic", 22e6, 0.80, 0.30},    // pioneer markets
      {8, "GPGPU", 10e6, 0.10, 0.25},           // training data / networks
      {9, "GPGPU", 6e6, 0.15, 0.30},            // standard benchmarks
      {10, "FPGA-accel", 12e6, 0.30, 0.20},     // accelerated blocks
      {11, "GPGPU", 9e6, 0.15, 0.20},           // heterogeneous scheduling
      {12, "SDN", 3e6, 0.05, 0.10},             // keep asking (surveys)
  };
}

double adoption_gain(const FundingOption& option, int horizon_year) {
  for (const auto& tech : technology_portfolio()) {
    if (tech.name != option.technology) continue;
    const auto boosted =
        with_intervention(tech, option.p_boost, option.q_boost);
    return adoption_at(boosted, static_cast<double>(horizon_year)) -
           adoption_at(tech, static_cast<double>(horizon_year));
  }
  throw std::invalid_argument{"adoption_gain: unknown technology " +
                              option.technology};
}

FundingPlan allocate_funding(sim::Dollars budget, int horizon_year) {
  if (budget < 0.0)
    throw std::invalid_argument{"allocate_funding: negative budget"};

  struct Scored {
    FundingOption option;
    double gain;
  };
  std::vector<Scored> candidates;
  for (const auto& option : standard_programme()) {
    const double gain = adoption_gain(option, horizon_year);
    if (gain > 0.0) candidates.push_back({option, gain});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Scored& a, const Scored& b) {
              const double ra = a.gain / a.option.cost;
              const double rb = b.gain / b.option.cost;
              if (ra != rb) return ra > rb;
              return a.option.recommendation < b.option.recommendation;
            });

  FundingPlan plan;
  for (const auto& c : candidates) {
    if (plan.spent + c.option.cost > budget) continue;
    plan.spent += c.option.cost;
    plan.total_gain += c.gain;
    plan.funded.push_back(c.option);
  }
  return plan;
}

}  // namespace rb::roadmap
