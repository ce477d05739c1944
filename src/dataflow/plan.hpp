#pragma once
// Logical job plans: DAGs of stages split at shuffle boundaries.
//
// This mirrors how MapReduce/Spark/Flink (Sec IV.C) compile a pipeline into
// stages — each stage a set of data-parallel tasks, edges carrying shuffled
// bytes. The cluster scheduler (rb_sched) executes JobGraphs on simulated
// heterogeneous clusters; the kernels carry roofline profiles so tasks have
// device-dependent run times.

#include <cstdint>
#include <string>
#include <vector>

#include "node/roofline.hpp"
#include "sim/units.hpp"

namespace rb::dataflow {

/// One data-parallel stage: `task_count` identical tasks, each running
/// `per_task_kernel` and emitting `shuffle_bytes_per_task` downstream.
struct StageSpec {
  std::string name;
  std::size_t task_count = 1;
  node::KernelProfile per_task_kernel;
  sim::Bytes shuffle_bytes_per_task = 0;
  std::vector<std::size_t> deps;  // indices of upstream stages
};

class JobGraph {
 public:
  explicit JobGraph(std::string name) : name_{std::move(name)} {}

  /// Append a stage; deps must reference already-added stages.
  std::size_t add_stage(StageSpec stage);

  const std::string& name() const noexcept { return name_; }
  std::size_t stage_count() const noexcept { return stages_.size(); }
  const StageSpec& stage(std::size_t i) const { return stages_.at(i); }

  std::size_t total_tasks() const noexcept;

  /// Stages with no unfinished dependency, given a done-mask.
  std::vector<std::size_t> runnable(const std::vector<bool>& done) const;

 private:
  std::string name_;
  std::vector<StageSpec> stages_;
};

/// --- Canonical jobs used by examples, tests and benches ---

/// WordCount: read+tokenize map stage, then reduce stage. Sizes derive from
/// `input_bytes`; kernels are memory-dominated (low arithmetic intensity).
JobGraph make_wordcount_job(sim::Bytes input_bytes, std::size_t tasks);

/// Two-table join: two scan stages feeding a shuffle-join stage.
JobGraph make_join_job(sim::Bytes left_bytes, sim::Bytes right_bytes,
                       std::size_t tasks);

/// Iterative k-means: `iterations` compute-heavy stages in a chain
/// (high arithmetic intensity — the accelerator-friendly workload).
JobGraph make_kmeans_job(sim::Bytes points_bytes, int iterations,
                         std::size_t tasks);

/// HPC-style stencil sweep (Rec 2 convergence workload): compute-bound
/// chained stages with halo-exchange-sized shuffles.
JobGraph make_stencil_job(sim::Bytes grid_bytes, int sweeps,
                          std::size_t tasks);

}  // namespace rb::dataflow
